import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from andnmf import harness, solver
from andnmf.cli import main
from andnmf.config import PRESETS, ConfigError, preset_config, validate_config
from andnmf.linalg import SvdConvergenceError
from andnmf.matio import read_matrix, read_trace, write_matrix
from andnmf.weights import WeightSpec, sample_weights


def tiny_config(**overrides):
    raw = {
        "dataset": {
            "preset": "DIR", "W": 40, "D": 5, "n": 80, "seed": 3,
        },
        "init": {"r_l": 1.0},
        "solvers": [
            {"name": "and", "stages": 2, "iters_per_stage": 3},
        ],
    }
    raw.update(overrides)
    return raw


def every_kind_config(weights):
    """A config that sets every key, with a held and an annealed `and` schedule."""
    return {
        "dataset": {"W": 40, "D": 5, "n": 80, "kind": "signed", "gamma": 0.02, "seed": 7,
                    "weights": weights},
        "init": {"r_l": 0.5, "r_n": 1},
        "solvers": [
            {"name": "and", "label": "held", "stages": 2, "iters_per_stage": 3,
             "batch": 20, "schedule": {"start": 0.1, "ratio": 1.0}},
            {"name": "and", "label": "annealed", "schedule": {"start": 0.2, "ratio": 0.8}},
            {"name": "hals", "outer_iters": 3},
            {"name": "anls"},
            {"name": "mu"},
        ],
        "eval_every": 2,
    }


WEIGHTS = {
    "sparse_binary": {"family": "sparse_binary", "s": 2},
    "dirichlet": {"family": "dirichlet", "concentration": 0.4},
    "logistic_normal": {"family": "logistic_normal", "rho": 0.3},
}


def readme_config():
    """The JSON example of README's "Config format" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Config format"):]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def readme_example():
    """The Python code of README's "Minimal example"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("Minimal example:"):]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# Each preset's resolution as shipped, at D 8 and with an explicit `weights`:
# (preset, dataset override, (W, D, n, kind, gamma, weights), and solver
# (stages, iters_per_stage, schedule start, schedule ratio))
_LN = {"family": "logistic_normal", "rho": 0.5}
_BIN = {"family": "sparse_binary", "s": 3}
_EXPLICIT = {"weights": {"family": "dirichlet", "concentration": 0.4}}
_AND = (30, 50, 0.1, 0.9090909090909091)
_NOISE_AND = (30, 100, 0.1, 0.9090909090909091)
_BINARY_AND = (16, 50, 0.25, 1.0)
PRESET_CASES = [
    ("DIR", {}, (200, 20, 2000, "nonneg", 0.0,
                 {"family": "dirichlet", "concentration": 0.25}), _AND),
    ("DIR", {"D": 8}, (200, 8, 2000, "nonneg", 0.0,
                       {"family": "dirichlet", "concentration": 0.625}), _AND),
    ("DIR", _EXPLICIT, (200, 20, 2000, "nonneg", 0.0, _EXPLICIT["weights"]), _AND),
    ("CTM", {}, (200, 20, 2000, "nonneg", 0.0, _LN), _AND),
    ("CTM", {"D": 8}, (200, 8, 2000, "nonneg", 0.0, _LN), _AND),
    ("CTM", _EXPLICIT, (200, 20, 2000, "nonneg", 0.0, _EXPLICIT["weights"]), _AND),
    ("NEG", {}, (200, 20, 2000, "signed", 0.0, _LN), _AND),
    ("NEG", {"D": 8}, (200, 8, 2000, "signed", 0.0, _LN), _AND),
    ("NEG", _EXPLICIT, (200, 20, 2000, "signed", 0.0, _EXPLICIT["weights"]), _AND),
    ("NOISE", {}, (200, 20, 2000, "nonneg", 0.01, _LN), _NOISE_AND),
    ("NOISE", {"D": 8}, (200, 8, 2000, "nonneg", 0.01, _LN), _NOISE_AND),
    ("NOISE", _EXPLICIT, (200, 20, 2000, "nonneg", 0.01, _EXPLICIT["weights"]), _NOISE_AND),
    ("BINARY", {}, (200, 20, 2000, "nonneg", 0.0, _BIN), _BINARY_AND),
    ("BINARY", {"D": 8}, (200, 8, 2000, "nonneg", 0.0, _BIN), _BINARY_AND),
    ("BINARY", _EXPLICIT, (200, 20, 2000, "nonneg", 0.0, _EXPLICIT["weights"]), _BINARY_AND),
    ("paper-scale", {}, (1000, 100, 5000, "nonneg", 0.0,
                         {"family": "dirichlet", "concentration": 0.05}), _AND),
    ("paper-scale", {"D": 8}, (1000, 8, 5000, "nonneg", 0.0,
                               {"family": "dirichlet", "concentration": 0.05}), _AND),
    ("paper-scale", _EXPLICIT, (1000, 100, 5000, "nonneg", 0.0, _EXPLICIT["weights"]), _AND),
]


def readme_presets():
    """README's preset table: row name -> (dataset keys, `and` solver keys)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Presets"):]
    rows = {}
    for line in section.split("\n| --- |", 1)[1].split("\n\n", 1)[0].splitlines()[1:]:
        name, dataset, solver = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows[name] = (json.loads(dataset), json.loads(solver or "{}"))
    return rows


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            validate_config(tiny_config(bogus=1))

    def test_out_dir_is_not_a_key(self, tmp_path, capsys):
        # `--out` is the one way to name the output directory
        out = str(tmp_path / "o")
        path = write_config(tmp_path, tiny_config(out_dir=out))
        assert main(["generate", "--config", str(path), "--out", out]) == 1
        assert "config.out_dir: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_dataset_key(self):
        raw = tiny_config()
        raw["dataset"]["columns"] = 7
        with pytest.raises(ConfigError, match="config.dataset.columns"):
            validate_config(raw)

    def test_unknown_solver_key(self):
        raw = tiny_config()
        raw["solvers"][0]["step"] = 0.1
        with pytest.raises(ConfigError, match=r"config.solvers\[0\].step"):
            validate_config(raw)

    def test_and_solver_takes_no_seed(self):
        # the staged solver draws no random numbers, so a seed would be unread
        raw = tiny_config()
        raw["solvers"][0]["seed"] = 5
        with pytest.raises(ConfigError, match=r"config\.solvers\[0\]\.seed: unknown key"):
            validate_config(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("and", "pinv_rel_tol", 1e-12),
        ("and", "eta_scale", 0.5),
        ("and", "eta", 0.5),
        ("schedule", "kind", "geometric"),
        ("schedule", "value", 0.1),
        ("hals", "inner_iters", 10),
        ("hals", "epsilon_floor", 1e-12),
        ("hals", "seed", 4),
        ("init", "seed", 11),
        ("init", "zero_diag", False),
        ("weights", "cov_scale", 25.0),
    ])
    def test_constant_is_not_a_key(self, tmp_path, capsys, section, key, value):
        # each of these is a constant, a seed derived from dataset.seed, or a
        # removed setting; setting even its value is an unknown key
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        target = {"and": raw["solvers"][0], "hals": raw["solvers"][1], "init": raw["init"],
                  "schedule": raw["solvers"][0].setdefault("schedule", {}),
                  "weights": {"family": "logistic_normal", "rho": 0.5}}
        if section == "weights":
            raw["dataset"]["weights"] = target["weights"]
        target[section][key] = value
        path = {"and": "config.solvers[0]", "hals": "config.solvers[1]",
                "init": "config.init", "schedule": "config.solvers[0].schedule",
                "weights": "config.dataset.weights"}[section]
        cfg_path = write_config(tmp_path, raw)
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert f"{path}.{key}: unknown key" in capsys.readouterr().err

    def test_unknown_preset(self):
        raw = tiny_config()
        raw["dataset"]["preset"] = "TOPICS"
        with pytest.raises(ConfigError, match="TOPICS"):
            validate_config(raw)

    def test_duplicate_labels(self):
        raw = tiny_config()
        raw["solvers"] = [{"name": "and"}, {"name": "and"}]
        with pytest.raises(ConfigError, match="duplicate label"):
            validate_config(raw)

    @pytest.mark.parametrize("label", ["../escaped", "sub/dir", ""],
                             ids=["dotdot", "slash", "empty"])
    def test_label_must_be_a_file_stem(self, tmp_path, capsys, label):
        # a label names <out>/<label>_trace.csv and <label>_A_final.mat, so a
        # path in it would write (and delete) files outside the output directory
        out = tmp_path / "runs" / "out"
        assert main(["generate", "--config", str(write_config(tmp_path, tiny_config())),
                     "--out", str(out)]) == 0
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "label": label, "outer_iters": 3})
        cfg_path = write_config(tmp_path, raw, "bad.json")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "config.solvers[1].label" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["out"]
        assert not list(out.glob("*_trace.csv")) and not (out / "summary.json").exists()

    def test_w_less_than_d(self):
        raw = tiny_config()
        raw["dataset"]["W"] = 3
        with pytest.raises(ConfigError, match="W >= D"):
            validate_config(raw)

    def test_weights_required_without_preset(self):
        raw = tiny_config()
        del raw["dataset"]["preset"]
        with pytest.raises(ConfigError, match="weights"):
            validate_config(raw)

    def test_logistic_normal_rho_outside_unit_interval(self):
        # rho^|i-j| is not a covariance for |rho| >= 1
        raw = tiny_config()
        raw["dataset"]["weights"] = {"family": "logistic_normal", "rho": 1.5}
        with pytest.raises(ConfigError, match=r"config\.dataset\.weights: rho"):
            validate_config(raw)

    def test_explicit_keys_override_preset(self):
        raw = tiny_config()
        raw["dataset"]["weights"] = {"family": "sparse_binary", "s": 2}
        cfg = validate_config(raw)
        assert cfg.dataset.weights.family == "sparse_binary"

    def test_seed_override_rederives_children(self):
        cfg_a = validate_config(tiny_config(), seed_override=99)
        cfg_b = validate_config(tiny_config())
        assert cfg_a.dataset.seed == 99
        seeds_a, seeds_b = cfg_a.derived_seeds(), cfg_b.derived_seeds()
        assert seeds_a["dataset"] == 99
        for key in ("ground_truth", "weights", "noise", "init"):
            assert seeds_a[key] != seeds_b[key]

    @pytest.mark.parametrize("preset, override, dataset, solver", PRESET_CASES,
                             ids=[f"{p}-{v}" for p in PRESETS for v in ("shipped", "D8", "weights")])
    def test_preset_defaults(self, preset, override, dataset, solver):
        raw = preset_config(preset)
        raw["dataset"].update(override)
        resolved = validate_config(raw).raw
        w, d, n, kind, gamma, weights = dataset
        assert resolved["dataset"] == {"preset": preset, "W": w, "D": d, "n": n, "kind": kind,
                                       "gamma": gamma, "seed": 0, "weights": weights}
        stages, iters, start, ratio = solver
        assert resolved["solvers"] == [{"name": "and", "label": "and", "stages": stages,
                                        "iters_per_stage": iters, "batch": "full",
                                        "schedule": {"start": start, "ratio": ratio}}]

    @pytest.mark.parametrize(
        "raw",
        [preset_config(p) for p in PRESETS]
        + [every_kind_config(w) for w in WEIGHTS.values()]
        + [readme_config()],
        ids=[*PRESETS, *(f"every-kind-{f}" for f in WEIGHTS), "README"],
    )
    def test_resolved_config_loads_back(self, raw):
        cfg = validate_config(raw)
        back = validate_config(json.loads(json.dumps(cfg.raw)))
        assert back.raw == cfg.raw
        assert back.config_hash() == cfg.config_hash()

    def test_null_means_absent(self):
        raw = tiny_config(eval_every=None)
        raw["dataset"]["weights"] = None
        raw["solvers"][0].update(label=None, schedule=None)
        assert validate_config(raw).raw == validate_config(tiny_config()).raw

    @pytest.mark.parametrize("section, value, key", [
        ("weights", {"family": "dirichlet", "concentration": 0.4, "rho": 0.5},
         "config.dataset.weights.rho"),
        ("weights", {"family": "logistic_normal", "s": 2}, "config.dataset.weights.s"),
        ("schedule", {"start": 0.2, "lambda": 1.0}, "config.solvers[0].schedule.lambda"),
    ], ids=["rho-on-dirichlet", "s-on-logistic_normal", "lambda-on-geometric"])
    def test_other_family_or_kind_key_is_error(self, section, value, key):
        raw = tiny_config()
        if section == "weights":
            raw["dataset"]["weights"] = value
        else:
            raw["solvers"][0]["schedule"] = value
        with pytest.raises(ConfigError, match=re.escape(f"{key}: unknown key")):
            validate_config(raw)

    def test_json_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "dataset": {,}\n}')
        rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("command, edit, key", [
        ("generate", lambda raw: raw["dataset"].update(D=0), "config.dataset.D"),
        ("generate", lambda raw: raw["dataset"].update(gamma=float("nan")),
         "config.dataset.gamma"),
        ("generate",
         lambda raw: raw["solvers"][0].update(schedule={"start": float("nan")}),
         "config.solvers[0].schedule.start"),
        ("run", lambda raw: raw["solvers"][0].update(schedule={"ratio": float("nan")}),
         "config.solvers[0].schedule.ratio"),
        # a removed key is unknown, whatever its value
        ("run", lambda raw: raw["solvers"][0].update(eta=float("nan")),
         "config.solvers[0].eta: unknown key"),
        ("generate", lambda raw: raw["dataset"].update(seed=-1), "config.dataset.seed"),
        ("generate",
         lambda raw: raw["solvers"][0].update(
             schedule={"kind": "theory", "lambda": 1.0, "r": 2.0, "q": 1.0}),
         "config.solvers[0].schedule.kind: unknown key"),
        ("generate",
         lambda raw: raw["dataset"].update(weights={"family": "sparse_uniform", "s": 2}),
         "config.dataset.weights.family: unknown family 'sparse_uniform'"),
    ], ids=["D-zero", "gamma-nan", "start-nan", "ratio-nan", "eta-nan", "seed-negative",
            "theory-kind", "sparse_uniform-family"])
    def test_zero_size_or_nonfinite_value_is_validation_error(self, tmp_path, capsys,
                                                             command, edit, key):
        # JSON as Python reads it accepts NaN and Infinity literals
        out = tmp_path / "out"
        assert main(["generate", "--config", str(write_config(tmp_path, tiny_config())),
                     "--out", str(out)]) == 0
        raw = tiny_config()
        edit(raw)
        path = write_config(tmp_path, raw, "bad.json")
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err


    def test_negative_seed_override_names_its_key(self, tmp_path, capsys):
        rc = main(["generate", "--preset", "DIR", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config.dataset.seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestGenerate:
    def test_writes_all_files_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("A_star.mat", "X.mat", "Y.mat", "Zeta.mat", "A0.mat", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"]
        assert manifest["seeds"]["dataset"] == 3
        assert set(manifest) == {"config", "config_sha256", "seeds", "ground_truth",
                                 "initialization", "versions"}
        x = read_matrix(out / "X.mat")
        assert x.sum(axis=0) == pytest.approx(np.ones(80), abs=1e-12)

    def test_manifest_solver_seeds_list_baselines_only(self, tmp_path):
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # every seed is derived from dataset.seed, so the config records none
        assert list(manifest["seeds"]["solvers"]) == ["hals"]
        assert all("seed" not in entry for entry in manifest["config"]["solvers"])

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(cfg_path), "--out", str(out1)])
        main(["generate", "--config", str(cfg_path), "--out", str(out2)])
        for name in ("A_star.mat", "X.mat", "Y.mat", "Zeta.mat", "A0.mat", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_config_regenerates_same_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["generate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg_path = write_config(tmp_path, manifest["config"], "manifest_config.json")
        assert main(["generate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("A_star.mat", "X.mat", "Y.mat", "Zeta.mat", "A0.mat", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_runtime_error_outside_a_solver_exits_2(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise SvdConvergenceError("SVD did not converge")

        monkeypatch.setattr(harness, "generate_ground_truth", fail)
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "SVD did not converge" in capsys.readouterr().err

    def test_neg_preset_ranges(self, tmp_path):
        raw = tiny_config()
        raw["dataset"]["preset"] = "NEG"
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg_path), "--out", str(out)])
        a_star = read_matrix(out / "A_star.mat")
        assert np.all(a_star >= -0.5) and np.all(a_star < 0.5)

    def test_preset_flag_without_config(self, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", "--preset", "BINARY", "--out", str(out), "--seed", "5"]) == 0
        x = read_matrix(out / "X.mat")
        assert set(np.unique(x)) == {0.0, 1.0}

    def test_missing_config_and_preset(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "o")]) == 1


class TestUsageErrors:
    # argparse exits 2 on a usage error, the CLI's code for divergence and
    # runtime failures; a usage error is a validation error, exit 1
    @pytest.mark.parametrize("argv, message", [
        (["run", "--preset", "DIR", "--out", "d", "--jobs", "two"],
         "andnmf run: argument --jobs: invalid int value: 'two'"),
        (["run", "--bogus"], "andnmf run: the following arguments are required: --out"),
        (["run", "--preset", "DIR", "--out", "d", "--bogus"],
         "andnmf: unrecognized arguments: --bogus"),
        ([], "andnmf: the following arguments are required: command"),
        (["generate", "--preset", "DIR"],
         "andnmf generate: the following arguments are required: --out"),
        # a preset given next to a config must not be dropped silently
        (["generate", "--config", "c.json", "--preset", "CTM", "--out", "o"],
         "andnmf generate: argument --preset: not allowed with argument --config"),
        (["run", "--preset", "CTM", "--config", "c.json", "--out", "o"],
         "andnmf run: argument --config: not allowed with argument --preset"),
        (["generate", "--preset", "TOPICS", "--out", "o"],
         "config.dataset.preset: unknown preset 'TOPICS' "
         "(known: ['BINARY', 'CTM', 'DIR', 'NEG', 'NOISE', 'paper-scale'])"),
    ], ids=["jobs-not-int", "bogus", "bogus-with-out", "no-subcommand", "no-out",
            "generate-config-and-preset", "run-config-and-preset", "unknown-preset"])
    def test_exits_one(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: andnmf" in capsys.readouterr().out


class TestRun:
    def run_tiny(self, tmp_path, raw=None):
        raw = raw or tiny_config()
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        return rc, out

    def test_produces_trace_final_summary(self, tmp_path):
        rc, out = self.run_tiny(tmp_path)
        assert rc == 0
        assert (out / "and_trace.csv").exists()
        assert (out / "and_A_final.mat").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "ok"
        rows = read_trace(out / "and_trace.csv")
        assert rows[0].e_norm is not None  # ground truth available

    def test_run_requires_generated_files(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "empty")])
        assert rc == 3

    def test_determinism_modulo_seconds(self, tmp_path):
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 4})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg_path), "--out", str(out)])
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        first = {
            name: [
                (r.stage, r.iteration, r.alpha, r.total_error, r.log10_error,
                 r.e_norm, r.n_norm)
                for r in read_trace(out / f"{name}_trace.csv")
            ]
            for name in ("and", "hals")
        }
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        for name, rows in first.items():
            again = [
                (r.stage, r.iteration, r.alpha, r.total_error, r.log10_error,
                 r.e_norm, r.n_norm)
                for r in read_trace(out / f"{name}_trace.csv")
            ]
            assert again == rows

    def test_two_solvers_same_schema(self, tmp_path):
        raw = tiny_config()
        raw["solvers"].append({"name": "anls", "outer_iters": 3})
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 0
        header_and = (out / "and_trace.csv").read_text().splitlines()[0]
        header_anls = (out / "anls_trace.csv").read_text().splitlines()[0]
        assert header_and == header_anls

    def test_jobs_two_is_reproducible_and_agrees_with_serial(self, tmp_path):
        raw = tiny_config()
        raw["solvers"] += [{"name": "hals", "outer_iters": 4}, {"name": "anls", "outer_iters": 3}]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0

        def run_jobs(jobs):
            assert main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            labels = [s["label"] for s in summary["solvers"]]
            traces = {lab: [(r.stage, r.iteration, r.alpha, r.total_error, r.log10_error,
                             r.e_norm, r.n_norm) for r in read_trace(out / f"{lab}_trace.csv")]
                      for lab in labels}
            finals = {lab: read_matrix(out / f"{lab}_A_final.mat") for lab in labels}
            return summary, traces, finals

        summary, traces, finals = run_jobs(2)
        _, traces_again, finals_again = run_jobs(2)
        assert traces_again == traces
        assert {k: a.tobytes() for k, a in finals_again.items()} == {
            k: a.tobytes() for k, a in finals.items()}
        serial, serial_traces, serial_finals = run_jobs(1)
        assert ([(s["label"], s["status"], s["rows"]) for s in summary["solvers"]]
                == [(s["label"], s["status"], s["rows"]) for s in serial["solvers"]])
        for label, rows in traces.items():
            ref = serial_traces[label]
            assert [r[:3] for r in rows] == [r[:3] for r in ref]  # stage, iteration, alpha
            np.testing.assert_allclose([r[3] for r in rows], [r[3] for r in ref], rtol=1e-8)
            a = serial_finals[label]
            assert np.max(np.abs(finals[label] - a)) <= 1e-8 * np.max(np.abs(a))

        found = harness._openblas()
        current = found[1]() if found else None
        # with a baseline, the run shares the CPUs between its workers
        for run_summary, workers in ((serial, 1), (summary, 2)):
            assert run_summary["blas_threads"] == (
                None if found is None
                else max(1, min(current, len(os.sched_getaffinity(0)) // workers)))

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_validation_error(self, tmp_path, capsys, jobs):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 1
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_mu_on_negative_data_documented_refusal(self, tmp_path):
        raw = tiny_config()
        raw["dataset"]["preset"] = "NEG"
        raw["solvers"] = [{"name": "mu", "outer_iters": 3}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "refused"
        assert "negative" in summary["solvers"][0]["detail"]

    def test_zero_curvature_stage_refused(self, tmp_path):
        # a held threshold above every decoded entry leaves no curvature to
        # set the step from: a validation error (exit 1), not a silent no-op
        raw = tiny_config()
        raw["solvers"] = [{"name": "and", "stages": 2, "iters_per_stage": 3,
                           "schedule": {"start": 1e9, "ratio": 1.0}}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 1
        status = json.loads((out / "summary.json").read_text())["solvers"][0]
        assert status["status"] == "refused"
        assert "stage 0" in status["detail"] and "alpha=1e+09" in status["detail"]
        assert not (out / "and_A_final.mat").exists()

    def test_refused_rerun_leaves_no_earlier_final_matrix(self, tmp_path):
        raw = tiny_config()
        raw["solvers"] = [{"name": "and", "stages": 2, "iters_per_stage": 3,
                           "schedule": {"start": 0.1, "ratio": 1.0}}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 0
        assert (out / "and_A_final.mat").exists()
        # a threshold above every decoded entry: the zero-curvature refusal
        raw["solvers"][0]["schedule"]["start"] = 1e9
        cfg_path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert json.loads((out / "summary.json").read_text())["solvers"][0]["status"] == "refused"
        assert not (out / "and_A_final.mat").exists()

    @pytest.mark.parametrize("column", ["zero", "duplicate"])
    def test_rank_deficient_ground_truth_refuses_every_solver(self, tmp_path, column):
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        a_star = read_matrix(out / "A_star.mat")
        a_star[:, -1] = 0.0 if column == "zero" else a_star[:, 0]
        write_matrix(out / "A_star.mat", a_star)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        statuses = json.loads((out / "summary.json").read_text())["solvers"]
        assert [s["status"] for s in statuses] == ["refused", "refused"]
        assert all("ground truth is rank deficient" in s["detail"] for s in statuses)

    def rerun_after(self, tmp_path, capsys, edit):
        """Generate the tiny 40 x 5, n = 80 dataset, run `and` and `hals` on
        it, apply `edit(out)` and run again; the rerun's exit code and stderr.
        A rerun stopped before its solvers leaves no result of the first."""
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        edit(out)
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert not (out / "summary.json").exists()
        assert not list(out.glob("*_trace.csv")) and not list(out.glob("*_A_final.mat"))
        return rc, capsys.readouterr().err

    def run_with_dataset_file(self, tmp_path, capsys, fname, shape, keep_truth):
        """`rerun_after` an edit that overwrites `fname` with a random matrix
        of `shape`, and first deletes `A_star.mat` unless `keep_truth`."""
        def edit(out):
            if not keep_truth:
                (out / "A_star.mat").unlink()
            write_matrix(out / fname, np.random.default_rng(0).random(shape))

        return self.rerun_after(tmp_path, capsys, edit)

    def test_wide_a0_without_truth_refused(self, tmp_path, capsys):
        # refused by the file check before any solver runs; a direct solver
        # call refuses it too (test_solver's test_wide_a0_without_truth_rejected)
        rc, err = self.run_with_dataset_file(tmp_path, capsys, "A0.mat", (40, 50), False)
        assert rc == 1
        assert "A0.mat is 40x50, but the config's W x D is 40x5" in err

    @pytest.mark.parametrize("fname, shape, keep_truth", [
        ("A0.mat", (40, 3), False),  # without the check, a rank-3 run exited 0
        ("A_star.mat", (40, 4), True),
        ("Y.mat", (40, 60), True),
    ])
    def test_dataset_file_of_another_shape_than_config_refused(
            self, tmp_path, capsys, fname, shape, keep_truth):
        rc, err = self.run_with_dataset_file(tmp_path, capsys, fname, shape, keep_truth)
        assert rc == 1
        assert f"{fname} is {shape[0]}x{shape[1]}" in err

    def test_rerun_without_y_leaves_no_results(self, tmp_path, capsys):
        rc, err = self.rerun_after(tmp_path, capsys, lambda out: (out / "Y.mat").unlink())
        assert rc == 3
        assert "missing dataset file" in err

    def test_divergence_recorded_with_partial_trace(self, tmp_path, monkeypatch):
        # 3x the stable step on the top curvature mode: |1 - 3| = 2 per step
        monkeypatch.setattr(solver, "_ETA_SCALE", 3.0)
        raw = tiny_config()
        raw["solvers"] = [{"name": "and", "stages": 1, "iters_per_stage": 500}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "diverged"
        assert read_trace(out / "and_trace.csv")  # partial rows retained

    def test_overflow_divergence_row_is_not_evaluated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_ETA_SCALE", math.inf)
        raw = tiny_config()
        raw["solvers"] = [{"name": "and", "stages": 1, "iters_per_stage": 5}]
        with np.errstate(over="ignore", invalid="ignore"):
            rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "diverged"
        last = read_trace(out / "and_trace.csv")[-1]
        assert last.total_error == float("inf")
        assert last.e_norm is None and last.n_norm is None

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("algorithm", ["hals", "mu", "anls"])
    def test_baseline_overflow_status(self, tmp_path, algorithm, with_truth):
        raw = tiny_config()
        raw["solvers"] = [{"name": algorithm, "outer_iters": 3}]
        with np.errstate(over="ignore", invalid="ignore"):
            rc, status, rows = self.scaled_run(
                tmp_path, raw, {"Y.mat": 1e160, "A0.mat": 1e160}, with_truth)
        assert (rc, status["status"]) == (2, "diverged")
        assert rows[-1].total_error == math.inf
        assert not (tmp_path / "out" / f"{algorithm}_A_final.mat").exists()

    def scaled_run(self, tmp_path, raw, scales, with_truth=True):
        """Exit code, summary status and trace of `raw` run on its dataset
        files, each file in `scales` multiplied by its scale."""
        tmp_path.mkdir(exist_ok=True)
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name, scale in scales.items():
            write_matrix(out / name, read_matrix(out / name) * scale)
        if not with_truth:
            (out / "A_star.mat").unlink()
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        status = json.loads((out / "summary.json").read_text())["solvers"][0]
        return rc, status, read_trace(out / f"{status['label']}_trace.csv")

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_decode_overflow_diverges(self, tmp_path, with_truth):
        # every input is finite, but P Y overflows: a numeric failure, not bad input
        with np.errstate(over="ignore", invalid="ignore"):
            rc, status, rows = self.scaled_run(
                tmp_path, tiny_config(), {"Y.mat": 1e300, "A0.mat": 1e-10}, with_truth)
        assert (rc, status["status"]) == (2, "diverged")
        assert (status["stage"], status["iteration"]) == (0, 0)
        assert status["detail"] == ("solver diverged at stage 0, iteration 0 "
                                    "(the decode pinv @ y has a non-finite entry)")
        assert [(r.stage, r.iteration, r.total_error) for r in rows] == [(0, 0, math.inf)]
        assert not (tmp_path / "out" / "and_A_final.mat").exists()

    def test_decode_beyond_the_divergence_limit_runs(self, tmp_path):
        # a tiny A0 decodes to entries near 9e12, past the 1e12 limit that
        # applies to iterates only
        rc, status, rows = self.scaled_run(tmp_path, tiny_config(), {"A0.mat": 1e-13})
        assert (rc, status["status"]) == (0, "ok")
        assert len(rows) == 6 and all(math.isfinite(r.total_error) for r in rows)

    @pytest.mark.parametrize("scale", [1e160, 2.0**600], ids=["1e160", "2^600"])
    @pytest.mark.parametrize("batch", ["full", 40], ids=["one-window", "several-windows"])
    def test_residual_rows_at_a_huge_scale_are_finite(self, tmp_path, scale, batch):
        # without a truth a row is ||Y_w - A Z_w||_F, which scales with Y and A0
        raw = tiny_config()
        raw["solvers"][0]["batch"] = batch
        runs = [self.scaled_run(tmp_path / str(s), raw, {"Y.mat": s, "A0.mat": s}, False)
                for s in (1.0, scale)]
        (rc1, status1, base), (rc, status, rows) = runs
        assert (rc1, status1["status"], rc, status["status"]) == (0, "ok", 0, "ok")
        assert len(rows) == len(base) == 6
        for row, ref in zip(rows, base):
            assert math.isfinite(row.total_error)
            assert row.total_error == pytest.approx(scale * ref.total_error, rel=1e-12, abs=0)
        assert math.isfinite(status["final_error"])

    def test_solver_runtime_error_recorded(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise SvdConvergenceError("SVD did not converge")

        monkeypatch.setattr(harness, "run_and", fail)
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 2
        statuses = json.loads((out / "summary.json").read_text())["solvers"]
        assert statuses[0]["status"] == "error"
        assert "SvdConvergenceError" in statuses[0]["detail"]
        assert statuses[1]["status"] == "ok"
        assert (out / "hals_A_final.mat").exists()

    @pytest.mark.parametrize("batch", ["full", 20], ids=["one-window", "several-windows"])
    def test_stage_eigendecomposition_failure_is_an_error_status(self, tmp_path, monkeypatch,
                                                                  batch):
        # a stage's one `eigh` that does not converge ends the solver as
        # SvdConvergenceError, whether the stage runs in closed form or not
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        raw = tiny_config()
        raw["solvers"][0]["batch"] = batch
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        status = json.loads((out / "summary.json").read_text())["solvers"][0]
        assert status["status"] == "error"
        assert "SvdConvergenceError" in status["detail"]
        assert "eigenvalues did not converge" in status["detail"]
        assert not (out / "and_A_final.mat").exists()

    def test_paper_scale_short_run(self, tmp_path):
        # D = 100 > 50, so the default evaluates every 10th iteration plus
        # the last of each stage: iterations 0 and 4 of both stages
        raw = preset_config("paper-scale")
        raw["solvers"] = [{"name": "and", "stages": 2, "iters_per_stage": 5}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "ok"
        rows = read_trace(out / "and_trace.csv")
        assert [(r.stage, r.iteration) for r in rows] == [(0, 0), (0, 4), (1, 0), (1, 4)]


class TestBlasThreads:
    @pytest.fixture
    def openblas(self):
        """The loaded OpenBLAS's (set, get) pair, set to 2 threads for the test."""
        found = harness._openblas()
        if found is None:
            pytest.skip("no OpenBLAS loaded in this process")
        set_threads, get_threads = found
        before = get_threads()
        set_threads(2)
        yield found
        set_threads(before)

    def test_caps_inside_and_restores_after(self, openblas):
        _, get_threads = openblas
        with harness._blas_threads(1) as count:
            assert count == get_threads() == 1
        assert get_threads() == 2

    def test_restores_when_the_block_raises(self, openblas):
        _, get_threads = openblas
        with pytest.raises(ZeroDivisionError), harness._blas_threads(1):
            assert get_threads() == 1
            1 / 0
        assert get_threads() == 2

    def test_never_raises_the_count(self, openblas):
        _, get_threads = openblas
        for limit in (4, math.inf):
            with harness._blas_threads(limit) as count:
                assert count == get_threads() == 2
            assert get_threads() == 2

    def test_numpys_openblas_is_found(self):
        # the one-thread rule for `and`-only runs rests on this lookup; the
        # `openblas` fixture skips without it, so a broken lookup must fail here
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas["name"].lower():
            pytest.skip(f"numpy's BLAS is {blas['name']}, not OpenBLAS")
        assert harness._openblas() is not None

    @staticmethod
    def and_outputs_at_2_and_1_thread(openblas, tmp_path, raw):
        """The trace (without `seconds`) and final matrix bytes of the `and`
        run `raw`, at 2 OpenBLAS threads and at 1."""
        set_threads, get_threads = openblas
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0

        def run_at(threads):
            set_threads(threads)
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert get_threads() == threads
            rows = [dataclasses.replace(r, seconds=0.0)
                    for r in read_trace(out / "and_trace.csv")]
            return rows, read_matrix(out / "and_A_final.mat").tobytes()

        return run_at(2), run_at(1)

    def test_small_and_run_does_not_depend_on_the_count(self, openblas, tmp_path):
        # an `and`-only run is on one thread at any host count, so its
        # outputs are bitwise the same at 2 threads and at 1
        raw = {"dataset": {"preset": "DIR"}, "solvers": [{"name": "and", "stages": 4}]}
        two, one = self.and_outputs_at_2_and_1_thread(openblas, tmp_path, raw)
        assert two == one

    def test_and_run_of_threaded_size_does_not_depend_on_the_count(self, openblas,
                                                                   tmp_path):
        # W·D² = 1024·32², with columns enough that two threads sum in
        # another order than one: OpenBLAS threads the products of this run
        raw = {"dataset": {"preset": "DIR", "W": 1024, "D": 32, "n": 400},
               "solvers": [{"name": "and", "stages": 2, "iters_per_stage": 5}]}
        two, one = self.and_outputs_at_2_and_1_thread(openblas, tmp_path, raw)
        assert two == one

    @pytest.fixture
    def fake_openblas(self, monkeypatch):
        """A fake OpenBLAS at 16 threads on 8 CPUs. Returns `(threads, calls,
        seen)`: the current count, every count set, and the count each solver
        started with."""
        threads, calls, seen = [16], [], []

        def set_threads(n):
            calls.append(n)
            threads[0] = n

        monkeypatch.setattr(harness, "_openblas", lambda: (set_threads, lambda: threads[0]))
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)))
        run_one = harness._run_one

        def recording_run_one(*args):
            seen.append(threads[0])
            return run_one(*args)

        monkeypatch.setattr(harness, "_run_one", recording_run_one)
        return threads, calls, seen

    @staticmethod
    def run_fake(tmp_path, solvers, jobs=1, w=200, d=20, n=80, a_star=None):
        """Generate a DIR dataset of `w x d` and `n` columns, then run `solvers`."""
        raw = tiny_config()
        raw["dataset"].update({"W": w, "D": d, "n": n})
        raw["solvers"] = solvers
        cfg = validate_config(raw)
        harness.generate(cfg, tmp_path)
        if a_star is not None:
            write_matrix(tmp_path / "A_star.mat", a_star(read_matrix(tmp_path / "A_star.mat")))
        return harness.run(cfg, tmp_path, jobs=jobs)

    AND = {"name": "and", "stages": 2, "iters_per_stage": 3}
    HALS = {"name": "hals", "outer_iters": 2}
    MU = {"name": "mu", "outer_iters": 2}

    # a run of `and` alone is on one thread at any --jobs; a run with a
    # baseline caps the count at 8 CPUs // workers
    @pytest.mark.parametrize("jobs, solvers, limit", [
        (2, [AND, HALS, MU], 4),
        (1, [AND, HALS, MU], 8),
        (2, [AND], 1),  # one solver runs serially whatever --jobs says
    ], ids=["pool", "jobs1", "one-solver"])
    def test_run_sets_each_solvers_count(self, tmp_path, fake_openblas, jobs, solvers,
                                         limit):
        threads, calls, seen = fake_openblas
        summary = self.run_fake(tmp_path, solvers, jobs=jobs)
        assert [s["status"] for s in summary["solvers"]] == ["ok"] * len(solvers)
        assert calls == [limit, 16] and seen == [limit] * len(solvers) and threads[0] == 16
        assert summary["blas_threads"] == limit
        assert not any("blas_threads" in s for s in summary["solvers"])

    @pytest.mark.parametrize("name", ["hals", "anls", "mu"])
    def test_serial_baseline_keeps_the_count(self, tmp_path, fake_openblas, name):
        # a host count of one thread per CPU is already below 8 CPUs // 1
        threads, calls, seen = fake_openblas
        threads[0] = 8
        summary = self.run_fake(tmp_path, [{"name": name, "outer_iters": 2}])
        assert summary["solvers"][0]["status"] == "ok"
        assert calls == [] and seen == [8] and threads[0] == 8
        assert summary["blas_threads"] == 8

    # W·D² = 1023·32² is just below 2**20, the size up to which a serial
    # `and` solve was capped alone; 1024·32² is 2**20
    @pytest.mark.parametrize("w, jobs", [(1023, 1), (1024, 1), (1023, 2), (1024, 2)],
                             ids=["below", "at", "below-pool", "at-pool"])
    def test_and_run_is_one_thread_at_any_size(self, tmp_path, fake_openblas, w, jobs):
        threads, calls, seen = fake_openblas
        solver_ = {"name": "and", "stages": 1, "iters_per_stage": 2}
        summary = self.run_fake(tmp_path, [solver_, {**solver_, "label": "again"}],
                                jobs=jobs, w=w, d=32, n=64)
        assert [s["status"] for s in summary["solvers"]] == ["ok", "ok"]
        assert calls == [1, 16] and seen == [1, 1] and threads[0] == 16
        assert summary["blas_threads"] == 1

    def test_refused_and_restores_the_count(self, tmp_path, fake_openblas):
        threads, calls, seen = fake_openblas

        def duplicate_column(a):
            a[:, -1] = a[:, 0]
            return a

        summary = self.run_fake(tmp_path, [self.AND], a_star=duplicate_column)
        assert summary["solvers"][0]["status"] == "refused"
        assert calls == [1, 16] and seen == [1] and threads[0] == 16

    def test_diverged_and_restores_the_count(self, tmp_path, fake_openblas, monkeypatch):
        threads, calls, seen = fake_openblas
        monkeypatch.setattr(solver, "_ETA_SCALE", 3.0)
        summary = self.run_fake(tmp_path, [{"name": "and", "stages": 1, "iters_per_stage": 500}])
        assert summary["solvers"][0]["status"] == "diverged"
        assert calls == [1, 16] and seen == [1] and threads[0] == 16

    def test_solver_that_raises_restores_the_count(self, tmp_path, fake_openblas,
                                                   monkeypatch):
        threads, calls, _ = fake_openblas

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run_and", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.run_fake(tmp_path, [self.AND])
        assert calls == [1, 16] and threads[0] == 16


def fresh_python(code, **env_overrides):
    """Run `code` in a fresh interpreter that imports the package from src/;
    an override of None removes the variable. Returns the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    for name, value in env_overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLazyImport:
    # records OPENBLAS_THREAD_TIMEOUT as it is when numpy is first imported
    HOOK = """
import json, os, sys
seen = []
class Hook:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None
sys.meta_path.insert(0, Hook())
"""

    def test_import_loads_no_numpy(self):
        code = ("import json, sys; import andnmf; "
                "print(json.dumps('numpy' in sys.modules))")
        assert fresh_python(code) is False

    def test_cli_sets_thread_timeout_before_numpy_loads(self):
        code = self.HOOK + "import andnmf.cli; print(json.dumps(seen))"
        assert fresh_python(code, OPENBLAS_THREAD_TIMEOUT=None) == ["4"]

    def test_user_thread_timeout_is_kept(self):
        code = self.HOOK + "import andnmf.cli; print(json.dumps(seen))"
        assert fresh_python(code, OPENBLAS_THREAD_TIMEOUT="28") == ["28"]

    def test_library_import_leaves_the_environment_alone(self):
        code = (self.HOOK + "import andnmf, andnmf.harness; andnmf.solver.run; "
                "print(json.dumps([seen, os.environ.get('OPENBLAS_THREAD_TIMEOUT')]))")
        assert fresh_python(code, OPENBLAS_THREAD_TIMEOUT=None) == [[None], None]


def test_readme_preset_table_is_the_preset_table():
    rows = readme_presets()
    base, _ = rows.pop("base")
    assert list(rows) == list(PRESETS)
    for name, (keys, and_keys) in rows.items():
        if name == "DIR":  # the one computed default, which the table leaves out
            assert keys["weights"].pop("concentration") == "5 / D"
        assert PRESETS[name] == ({**base, **keys}, and_keys), name


def test_readme_minimal_example_prints_a_finite_error():
    error = fresh_python(readme_example())
    assert isinstance(error, float) and math.isfinite(error)


class TestEvalAndGcc:
    def test_eval_self_is_zero(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.random((12, 4))
        p = tmp_path / "a.mat"
        write_matrix(p, a)
        report_path = tmp_path / "report.json"
        assert main(["eval", str(p), str(p), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["total"] <= 1e-7

    def test_eval_permuted_scaled_copy_zero(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.random((12, 4))
        est = a[:, [2, 0, 3, 1]] * np.array([2.0, -1.5, 0.25, 3.0])
        pa, pe = tmp_path / "a.mat", tmp_path / "e.mat"
        write_matrix(pa, a)
        write_matrix(pe, est)
        out = tmp_path / "r.json"
        assert main(["eval", str(pe), str(pa), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] <= 1e-7

    @pytest.mark.parametrize("scale, truth_scale", [
        (1e160, 1.0), (1e170, 1.0), (1e160, 1e160), (1e170, 1e170),
    ], ids=["1e+160", "1e+170", "both-1e+160", "both-1e+170"])
    def test_eval_huge_estimate_keeps_its_winners(self, tmp_path, scale, truth_scale):
        # errors are invariant to the estimate's scale and linear in the truth's
        rng = np.random.default_rng(2)
        a = rng.random((12, 4))
        est = (a @ (np.eye(4) + 0.1 * rng.standard_normal((4, 4))))[:, [2, 0, 3, 1]]
        paths = {name: tmp_path / f"{name}.mat" for name in ("a", "est", "big_a", "big")}
        for name, m in (("a", a), ("est", est), ("big_a", truth_scale * a),
                        ("big", scale * est)):
            write_matrix(paths[name], m)
        reports = {}
        for name, truth in (("est", "a"), ("big", "big_a")):
            out = tmp_path / f"{name}.json"
            assert main(["eval", str(paths[name]), str(paths[truth]), "--out", str(out)]) == 0
            reports[name] = json.loads(out.read_text())
        assert reports["est"]["matches"] == [1, 3, 0, 2]
        assert reports["big"]["matches"] == reports["est"]["matches"]
        assert reports["big"]["total"] == pytest.approx(truth_scale * reports["est"]["total"],
                                                        rel=1e-12, abs=0)

    def test_eval_shape_mismatch_is_validation_error(self, tmp_path):
        pa, pb = tmp_path / "a.mat", tmp_path / "b.mat"
        write_matrix(pa, np.ones((4, 2)))
        write_matrix(pb, np.ones((5, 2)))
        assert main(["eval", str(pa), str(pb)]) == 1

    def test_eval_malformed_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"JUNKJUNKJUNK")
        good = tmp_path / "good.mat"
        write_matrix(good, np.ones((2, 2)))
        assert main(["eval", str(bad), str(good)]) == 3
        assert "offset" in capsys.readouterr().err

    def test_gcc_dirichlet_simplex_r(self, tmp_path):
        x = sample_weights(WeightSpec("dirichlet", 5, concentration=0.4, seed=2), 400)
        p = tmp_path / "w.mat"
        write_matrix(p, x)
        out = tmp_path / "g.json"
        assert main(["gcc", str(p), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["params"]["r"] <= 1.0 + 1e-9

    def test_gcc_binary_exact_r(self, tmp_path):
        x = sample_weights(WeightSpec("sparse_binary", 6, s=3, seed=3), 500)
        p = tmp_path / "w.mat"
        write_matrix(p, x)
        out = tmp_path / "g.json"
        main(["gcc", str(p), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["params"]["r"] == 3.0
        assert set(report) == {"params", "moments"}
        assert set(report["params"]) == {"r", "k", "m", "lambda"}

    def test_gcc_enumeration_m_estimate(self, tmp_path):
        x = sample_weights(WeightSpec("sparse_binary", 4, s=2, seed=4), 100000)
        p = tmp_path / "w.mat"
        write_matrix(p, x)
        out = tmp_path / "g.json"
        main(["gcc", str(p), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["params"]["m"] == pytest.approx(8.0 / 3.0, rel=0.10)

    def test_gcc_rejects_out_of_range(self, tmp_path):
        p = tmp_path / "w.mat"
        write_matrix(p, np.array([[1.5, 0.2], [0.1, 0.3]]))
        assert main(["gcc", str(p)]) == 1
