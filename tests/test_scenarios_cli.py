"""Scenario schema round-trips, builtin catalog, CLI verbs and exit codes."""

import json
from functools import partial

import numpy as np
import pytest

from orliczlab import cli, young
from orliczlab.errors import ConfigError
from orliczlab.scenarios import (
    BUILTIN_ORDER,
    builtin_scenario,
    from_config,
    materialize,
    to_config,
)
from orliczlab.suites import run_suite


def minimal_config(**overrides):
    cfg = {
        "name": "tiny",
        "space": {"type": "symmetric", "n_half": 2},
        "young": {"kind": "scaled_power", "p": 2.0},
        "u": {"type": "generator", "name": "identity"},
    }
    cfg.update(overrides)
    return cfg


class TestScenarioSchema:
    def test_round_trip_is_structural_identity(self):
        for name in BUILTIN_ORDER:
            scenario = builtin_scenario(name)
            assert from_config(to_config(scenario)) == scenario

    def test_minimal_config_parses_with_defaults(self):
        s = from_config(minimal_config())
        assert s.seed == 0
        assert s.budget == 10_000
        assert s.conjugate_mode == "closed_form"

    @pytest.mark.parametrize(
        "mutation, field",
        [
            ({"name": ""}, "scenario.name"),
            ({"space": {"type": "hyperbolic"}}, "scenario.space.type"),
            ({"space": {"type": "symmetric"}}, "scenario.space.n_half"),
            ({"space": {"type": "symmetric", "n_half": 0}}, "scenario.space.n_half"),
            ({"space": {"type": "explicit", "weights": []}}, "scenario.space.weights"),
            ({"young": {"kind": "mystery"}}, "scenario.young"),
            ({"u": {"type": "wavelet"}}, "scenario.u.type"),
            ({"u": {"type": "law", "name": "cubic"}}, "scenario.u.name"),
            ({"u": {"type": "generator", "name": "indicator"}}, "scenario.u.block"),
            ({"conjugate_mode": "guess"}, "scenario.conjugate_mode"),
            ({"seed": "zero"}, "scenario.seed"),
            ({"budget": 0}, "scenario.budget"),
            ({"space": {"type": "explicit", "weights": ["x", 1]}}, "scenario.space.weights"),
            ({"young": {"kind": "scaled_power", "p": "two"}}, "scenario.young.p"),
            ({"u": {"type": "explicit", "values": [1.0, float("nan"), 1.0, 1.0]}}, "scenario.u.values"),
            ({"u": {"type": "explicit", "values": [10**400, 1.0, 1.0, 1.0]}}, "scenario.u.values"),
            ({"partition": {"labels": [0, 0, 1]}}, "scenario.partition.labels"),
            ({"partition": {"labels": 3}}, "scenario.partition"),
            (partial(young.from_config, {"kind": "power", "p": "two"}), "young.p"),
            ({"young": {"kind": "piecewise_linear", "breakpoints": 5, "slopes": [1.0]}}, "scenario.young.kind"),
            ({"young": {"kind": "piecewise_linear", "breakpoints": [0.0], "slopes": ["a"]}}, "scenario.young.kind"),
        ],
    )
    def test_errors_name_the_offending_field(self, mutation, field):
        # A mutation is a change to the minimal config, or a call to make directly.
        with pytest.raises(ConfigError) as exc:
            if callable(mutation):
                mutation()
            else:
                materialize(from_config(minimal_config(**mutation)))
        assert field in str(exc.value)

    def test_unknown_builtin_is_a_config_error(self):
        with pytest.raises(ConfigError):
            builtin_scenario("example-9.9z")

    def test_seed_override(self):
        assert builtin_scenario("spectrum-demo", seed_override=77).seed == 77


class TestMaterialize:
    def test_every_builtin_materializes(self):
        for name in BUILTIN_ORDER:
            mat = materialize(builtin_scenario(name))
            if mat.is_family:
                assert mat.family is not None
                assert mat.representative().n_atoms > 0
            else:
                assert mat.operator is not None
                assert mat.phi.kind is not None

    def test_spectrum_demo_objects(self):
        mat = materialize(builtin_scenario("spectrum-demo"))
        assert mat.operator.space.n_atoms == 4
        assert mat.operator.partition.n_blocks == 2
        assert list(mat.operator.u) == [1.0, 3.0, 2.0, 2.0]

    def test_numeric_conjugate_mode_validates_the_pair(self):
        s = from_config(minimal_config(conjugate_mode="numeric"))
        mat = materialize(s)
        assert mat.psi.kind == "scaled_power"

    def test_family_requires_a_law_multiplier(self):
        cfg = minimal_config(
            space={"type": "family", "sizes": [4, 8]},
            u={"type": "generator", "name": "identity"},
        )
        with pytest.raises(ConfigError) as exc:
            materialize(from_config(cfg))
        assert "scenario.u.type" in str(exc.value)

    def test_explicit_space_requires_a_partition(self):
        cfg = minimal_config(space={"type": "explicit", "weights": [1.0, 1.0]})
        with pytest.raises(ConfigError) as exc:
            materialize(from_config(cfg))
        assert "scenario.partition" in str(exc.value)

    def test_u_length_must_match_the_space(self):
        cfg = minimal_config(u={"type": "explicit", "values": [1.0, 2.0]})
        with pytest.raises(ConfigError) as exc:
            materialize(from_config(cfg))
        assert "scenario.u.values" in str(exc.value)

    def test_indicator_generator_bounds_checked(self):
        cfg = minimal_config(u={"type": "generator", "name": "indicator", "block": 9})
        with pytest.raises(ConfigError) as exc:
            materialize(from_config(cfg))
        assert "scenario.u.block" in str(exc.value)


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == len(BUILTIN_ORDER)
        for name in BUILTIN_ORDER:
            assert any(line.startswith(f"{name}: ") for line in lines)

    def test_run_builtin_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = cli.main(
            [
                "run",
                "--config",
                "spectrum-demo",
                "--suite",
                "spectrum",
                "--suite",
                "resolvent",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["schema"] == "orliczlab-report/1"
        assert report["passed"] is True
        suites = report["scenarios"][0]["suites"]
        assert set(suites) == {"spectrum", "resolvent"}
        stdout_report = json.loads(capsys.readouterr().out)
        assert stdout_report["scenarios"] == report["scenarios"]

    def test_run_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(minimal_config()))
        assert cli.main(["run", "--config", str(cfg), "--suite", "jensen"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenarios"][0]["scenario"]["name"] == "tiny"

    def test_run_scenario_list_wrapper(self, capsys, tmp_path):
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps({"scenarios": [minimal_config(), minimal_config(name="tiny2")]}))
        assert cli.main(["run", "--config", str(cfg), "--suite", "contraction"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [s["scenario"]["name"] for s in report["scenarios"]]
        assert names == ["tiny", "tiny2"]

    @pytest.mark.parametrize(
        "mutation, field",
        [
            ({"space": {"type": "explicit", "weights": ["x", 1]}}, "scenario.space.weights"),
            ({"young": {"kind": "scaled_power", "p": "two"}}, "scenario.young.p"),
            ({"partition": {"labels": [0, 0, 1]}}, "scenario.partition.labels"),
            ({"young": {"kind": "piecewise_linear", "breakpoints": 5, "slopes": [1.0]}}, "scenario.young.kind"),
            ({"young": {"kind": "piecewise_linear", "breakpoints": ["a"], "slopes": [1.0]}}, "scenario.young.kind"),
        ],
    )
    def test_malformed_values_exit_two(self, capsys, tmp_path, mutation, field):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(minimal_config(**mutation)))
        assert cli.main(["run", "--config", str(cfg), "--suite", "spectrum"]) == 2
        assert field in capsys.readouterr().err

    def test_negative_seed_option_exits_two(self, capsys):
        assert cli.main(["run", "--config", "spectrum-demo", "--suite", "jensen", "--seed", "-20"]) == 2
        assert "--seed: must be nonnegative" in capsys.readouterr().err

    def test_negative_scenario_seed_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(minimal_config(seed=-20)))
        assert cli.main(["run", "--config", str(cfg), "--suite", "jensen"]) == 2
        assert "scenario.seed: must be nonnegative" in capsys.readouterr().err

    def test_negative_multiplier_seed_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(minimal_config(u={"type": "generator", "name": "random_uniform", "seed": -1})))
        assert cli.main(["run", "--config", str(cfg), "--suite", "spectrum"]) == 2
        assert "scenario.u.seed: must be nonnegative" in capsys.readouterr().err

    def test_missing_config_exits_two(self, capsys):
        assert cli.main(["run", "--config", "no-such-scenario"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_names_the_position(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"name": "x",}')
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        dest = tmp_path / "no-such-dir" / "report.json"
        argv = ["run", "--config", "spectrum-demo", "--suite", "spectrum", "--out", str(dest)]
        assert cli.main(argv) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_export_matrix_unwritable_out_exits_two(self, capsys, tmp_path):
        dest = tmp_path / "no-such-dir" / "matrix.csv"
        assert cli.main(["export-matrix", "--config", "spectrum-demo", "--out", str(dest)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unknown_suite_exits_two(self, capsys):
        assert cli.main(["run", "--config", "spectrum-demo", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        def failing(_mat, _names=None):
            return {
                "scenario": "spectrum-demo",
                "suites": {
                    "spectrum": {
                        "suite": "spectrum",
                        "passed": False,
                        "checks": [
                            {
                                "name": "forced_failure",
                                "passed": False,
                                "value": 1.0,
                                "bound": 0.0,
                                "tolerance": 0.0,
                            }
                        ],
                    }
                },
                "passed": False,
            }

        monkeypatch.setattr(cli, "run_all_suites", failing)
        code = cli.main(["run", "--config", "spectrum-demo", "--format", "table"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_solver_out_of_budget_fails_its_suites(self, capsys, tmp_path):
        # |x|**p with p this close to 1 grows almost linearly, so the numeric
        # conjugate's bracket never closes within its doubling budget.
        cfg = tmp_path / "near_linear.json"
        cfg.write_text(json.dumps(minimal_config(young={"kind": "power", "p": 1.0000000001})))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with np.errstate(all="ignore"):
            assert cli.main(["run", "--config", str(cfg)]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        suites = report["scenarios"][0]["suites"]
        for name in ("young-calculus", "gcthi"):
            (check,) = suites[name]["checks"]
            assert check["name"] == "solver_budget_exhausted" and check["passed"] is False
            assert "doubling budget" in check["error"]
            assert suites[name]["passed"] is False

    def test_underflowed_level_fails_its_bounds_as_nonfinite(self, capsys, tmp_path):
        # The conjugate power has q near 1e10, so psi(|u|) underflows to 0 on
        # every block and each level reads 0 although u is not 0 there.
        cfg = tmp_path / "underflow.json"
        cfg.write_text(json.dumps(minimal_config(young={"kind": "power", "p": 1.0000000001})))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with np.errstate(all="ignore"):
            code = cli.main(["run", "--config", str(cfg), "--suite=boundedness", "--suite=essential-norm"])
        assert code == 1
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        suites = report["scenarios"][0]["suites"]
        sandwich = suites["boundedness"]["checks"][0]
        gap = suites["essential-norm"]["checks"][0]
        assert sandwich["name"] == "norm_sandwich" and sandwich["bound"] == "NaN"
        assert gap["name"] == "gap_within_scaled_threshold" and gap["beta"] == "NaN"
        for check in (sandwich, gap):
            assert check["passed"] is False and check["nonfinite"] is True

    def test_underflowed_family_betas_fail_as_nonfinite(self):
        # The same underflow on a refinement family: every member's beta is NaN,
        # and the family checks carry them in `betas`, not in a value or bound.
        cfg = minimal_config(
            space={"type": "family", "sizes": [16, 64], "atoms_per_block": 2},
            young={"kind": "power", "p": 1.0000000001},
            u={"type": "law", "name": "reciprocal"},
        )
        with np.errstate(all="ignore"):
            result = run_suite("essential-norm", materialize(from_config(cfg)))
        checks = {check["name"]: check for check in result["checks"]}
        assert set(checks) == {"gap_within_scaled_threshold", "threshold_vanishes"}
        for check in checks.values():
            assert np.isnan(check["betas"]).all()
            assert check["passed"] is False and check["nonfinite"] is True, check["name"]
        assert result["passed"] is False

    def test_infinite_multiplier_mean_fails_spectrum_and_resolvent_as_nonfinite(self, capsys, tmp_path):
        # w * u overflows on the first block, so E(u) and the oracle matrix hold inf:
        # eigvals refuses the block, and no lambda can be drawn from [-span, span].
        cfg = tmp_path / "inf_spectrum.json"
        scenario = {
            "name": "inf-spectrum",
            "space": {"type": "explicit", "weights": [1e139, 1.0, 1.0, 1e-3]},
            "partition": {"labels": [0, 0, 1, 1]},
            "young": {"kind": "power", "p": 2.0},
            "u": {"type": "explicit", "values": [1e300, 1.0, 2.0, 1e300]},
            "budget": 20,
        }
        cfg.write_text(json.dumps({"scenarios": [scenario]}))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with np.errstate(all="ignore"):
            code = cli.main(["run", "--config", str(cfg), "--suite=spectrum", "--suite=resolvent"])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err
        suites = json.loads(out, parse_constant=reject)["scenarios"][0]["suites"]
        for name in ("spectrum", "resolvent"):
            (check,) = suites[name]["checks"]
            assert check["value"] == "NaN", name
            assert check["passed"] is False and check["nonfinite"] is True, name

    def test_reports_are_deterministic_modulo_timing(self, capsys):
        def body():
            assert (
                cli.main(
                    ["run", "--config", "example-1.6a", "--suite", "gcthi", "--seed", "5"]
                )
                == 0
            )
            report = json.loads(capsys.readouterr().out)
            del report["timing"]
            return json.dumps(report, sort_keys=True)

        assert body() == body()

    def test_seed_override_is_echoed(self, capsys):
        assert (
            cli.main(["run", "--config", "spectrum-demo", "--suite", "spectrum", "--seed", "123"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["scenarios"][0]["scenario"]["seed"] == 123

    def test_table_format(self, capsys):
        assert (
            cli.main(
                ["run", "--config", "spectrum-demo", "--suite", "spectrum", "--format", "table"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scenario spectrum-demo: PASS" in out
        assert "overall: PASS" in out

    def test_report_is_strict_json(self, capsys, tmp_path):
        # Extreme but valid input: the search bound C0**2 overflows to inf, and
        # exp_type overflows inside the Jensen check, whose gap is then NaN.
        cfg = tmp_path / "extreme.json"
        extreme = minimal_config(
            space={"type": "explicit", "weights": [1, 1e-300]},
            partition={"labels": [0, 0]},
            young={"kind": "exp_type"},
            u={"type": "explicit", "values": [1, 1e300]},
            budget=200,
        )
        cfg.write_text(json.dumps(extreme))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        suites = ["jensen", "gcthi", "boundedness", "essential-norm"]
        with np.errstate(all="ignore"):
            code = cli.main(["run", "--config", str(cfg), *(f"--suite={s}" for s in suites)])
        assert code == 1
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        checks = {
            f"{suite}/{check['name']}": check
            for suite, result in report["scenarios"][0]["suites"].items()
            for check in result["checks"]
        }
        convexity = checks["jensen/convexity_inequality"]
        assert convexity["passed"] is False and convexity["value"] == "NaN"
        assert checks["gcthi/ratio_within_domination_constant"]["bound"] == "Infinity"
        # A value or bound that is not finite fails its check, whatever the comparison says.
        for key in (
            "jensen/convexity_inequality",
            "boundedness/norm_sandwich",
            "essential-norm/gap_within_scaled_threshold",
            "gcthi/ratio_within_domination_constant",
            "gcthi/normalized_average_first_factor",
            "gcthi/sum_constant_dominates_search",
        ):
            assert checks[key]["passed"] is False and checks[key]["nonfinite"] is True, key
        for check in checks.values():
            if "nonfinite" not in check:
                assert all(isinstance(check.get(k, 0.0), float) for k in ("value", "bound")), check

    def test_export_matrix(self, tmp_path):
        out_file = tmp_path / "matrix.csv"
        assert cli.main(["export-matrix", "--config", "spectrum-demo", "--out", str(out_file)]) == 0
        got = np.loadtxt(out_file, delimiter=",")
        want = np.array(
            [
                [0.5, 1.5, 0.0, 0.0],
                [0.5, 1.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        assert np.array_equal(got, want)

    def test_out_dir_override_prefixes_relative_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ORLICZLAB_OUT_DIR", str(tmp_path))
        assert (
            cli.main(
                [
                    "run",
                    "--config",
                    "spectrum-demo",
                    "--suite",
                    "spectrum",
                    "--out",
                    "nested-report.json",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (tmp_path / "nested-report.json").exists()

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "orliczlab", "list-scenarios"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "example-1.6b" in proc.stdout
