"""Scenario schema round-trips, builtin catalog, CLI verbs and exit codes."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from orliczlab import cli, operators, scenarios, young
from orliczlab import suites as suites_mod
from orliczlab.errors import BracketFailure, ConfigError
from orliczlab.holder import domination_holder_constant
from orliczlab.scenarios import (
    BUILTIN_ORDER,
    builtin_scenario,
    from_config,
    materialize,
    to_config,
)
from orliczlab.suites import run_part, run_suite

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def minimal_config(**overrides):
    cfg = {
        "name": "tiny",
        "space": {"type": "symmetric", "n_half": 2},
        "young": {"kind": "scaled_power", "p": 2.0},
        "u": {"type": "generator", "name": "identity"},
    }
    cfg.update(overrides)
    return cfg


# A list or dict where a table key or a law name goes: each is unknown, not a traceback.
UNHASHABLE_KEYS = [
    ({"u": {"type": "law", "name": ["flat"]}}, "scenario.u.name"),
    ({"u": {"type": "law", "name": {"a": 1}}}, "scenario.u.name"),
    ({"space": {"type": ["symmetric"]}}, "scenario.space.type"),
    ({"u": {"type": "generator", "name": {"a": 1}}}, "scenario.u.name"),
]
# Numbers that parse but overflow a later conversion: a label past int64, and a
# p whose conjugate exponent p/(p-1) rounds to 1, named as the config gave it.
OVERFLOWING_NUMBERS = [
    ({"partition": {"labels": [0, 0, 1, 10**29]}}, "scenario.partition.labels"),
    *(
        ({"young": {"kind": kind, "p": 1e17}}, f"scenario.young.p: '{kind}' needs p/(p-1) > 1 in floating point, got p = 1e+17")
        for kind in ("power", "scaled_power", "conjugate_power")
    ),
]
# A family builds the partition of each member, so it takes none from the config.
FAMILY_WITH_PARTITION = {
    "space": {"type": "family", "sizes": [4, 8]},
    "partition": {"labels": [0]},
    "u": {"type": "law", "name": "flat"},
}


class TestScenarioSchema:
    def test_round_trip_is_structural_identity(self):
        for name in BUILTIN_ORDER:
            scenario = builtin_scenario(name)
            assert from_config(to_config(scenario)) == scenario

    def test_minimal_config_parses_with_defaults(self):
        s = from_config(minimal_config())
        assert s.seed == 0
        assert s.budget == 10_000

    def test_young_is_kept_as_the_fields_read(self):
        # kind, plus a float p for the power kinds; any other key is dropped.
        for young_cfg, kept in (
            ({"kind": "exp_type", "p": 3, "junk": 1}, {"kind": "exp_type"}),
            ({"kind": "power", "p": 3, "junk": 1}, {"kind": "power", "p": 3.0}),
        ):
            assert from_config(minimal_config(young=young_cfg)).young == kept

    def test_a_stale_conjugate_mode_key_is_ignored(self):
        # No field reads conjugate_mode, so like any unknown key it is ignored.
        for mode in ("closed_form", "numeric", "guess"):
            assert from_config(minimal_config(conjugate_mode=mode)) == from_config(minimal_config())

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
            ({"space": {"type": "explicit", "weights": [1e308] * 4}, "partition": {"labels": [0, 0, 1, 1]}}, "scenario.space.weights"),
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
            ({"space": {"type": "rotation", "n": 1}}, "scenario.space.n:"),
            ({"space": {"type": "family", "sizes": [64, 16]}, "u": {"type": "law", "name": "flat"}}, "scenario.space.sizes"),
            ({"space": {"type": "explicit", "weights": [1, -1]}, "partition": {"labels": [0, 0]}}, "scenario.space.weights"),
            ({"space": {"type": "explicit", "weights": [1, 1]}, "partition": {"labels": [0, 2]}}, "scenario.partition.labels"),
            ({"space": {"type": "explicit", "weights": [math.inf, 1]}, "partition": {"labels": [0, 0]}}, "scenario.space.weights"),
            # Each block's mass is finite; the space's total is not.
            ({"space": {"type": "explicit", "weights": [1.7e308] * 2}, "partition": {"labels": [0, 1]}}, "scenario.space.weights"),
            ({"young": {"kind": "power"}}, "scenario.young.p"),
            # One member is no trend: a family needs two sizes or more.
            *(
                ({"space": {"type": "family", "sizes": [64], "atoms_per_block": 2}, "u": {"type": "law", "name": law}}, "scenario.space.sizes")
                for law in ("reciprocal", "flat", "log_growth")
            ),
            ({"space": {"type": "family", "sizes": []}, "u": {"type": "law", "name": "flat"}}, "scenario.space.sizes"),
            ({"space": {"type": "family", "sizes": 64}, "u": {"type": "law", "name": "flat"}}, "scenario.space.sizes"),
            ({"description": 7}, "scenario.description"),
            ({"young": {"kind": ["power"]}}, "scenario.young.kind"),
            ({"young": {"kind": {"a": 1}}}, "scenario.young.kind"),
            *UNHASHABLE_KEYS,
            *OVERFLOWING_NUMBERS,
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
            assert mat.operator.n_atoms > 0
            assert mat.phi.kind is not None
            if mat.is_family:
                # The single-space suites read the family's own middle member.
                assert mat.operator is mat.family.members[1][1]

    def test_family_suites_solve_each_members_levels_once(self, monkeypatch):
        calls, inverse = [], young.inverse
        # Every level is inverted through YoungFunction.inverse, which calls young.inverse.
        monkeypatch.setattr(young, "inverse", lambda *a: calls.append(a) or inverse(*a))
        mat = materialize(builtin_scenario("decay-family"))
        for name in ("boundedness", "compactness-trend", "essential-norm"):
            assert run_suite(name, mat)["passed"], name
        assert len(mat.family.members) == 3
        assert len(calls) == 3

    def test_each_members_gap_bound_uses_that_members_constant(self):
        # Seven atoms of weight 1/n per block: C0**2 reads 49.0 on some members
        # and a neighbour of it on others.
        space = {"type": "family", "sizes": [3, 10, 33, 100], "atoms_per_block": 7}
        mat = materialize(from_config(minimal_config(space=space, u={"type": "law", "name": "flat"})))
        (check,) = [c for c in run_suite("essential-norm", mat)["checks"] if c["name"] == "gap_within_scaled_threshold"]
        constants = [domination_holder_constant(op.space, op.partition) for _, op in mat.family.members]
        assert len(set(constants)) > 1
        for C, row in zip(constants, check["members"], strict=True):
            assert row["bound"] == C * row["epsilon"], (row["m"], C)

    def test_spectrum_demo_objects(self):
        mat = materialize(builtin_scenario("spectrum-demo"))
        assert mat.operator.space.n_atoms == 4
        assert mat.operator.partition.n_blocks == 2
        assert list(mat.operator.u) == [1.0, 3.0, 2.0, 2.0]

    def test_materialized_scenarios_compare_by_their_operators(self):
        # Operators compare by identity, so two builds differ and neither raises.
        first, second = (materialize(builtin_scenario("spectrum-demo")) for _ in range(2))
        assert first == first
        assert (first == second) is False
        assert first.operator != second.operator and len({first.operator, second.operator}) == 2

    def test_family_requires_a_law_multiplier(self):
        cfg = minimal_config(
            space={"type": "family", "sizes": [4, 8]},
            u={"type": "generator", "name": "identity"},
        )
        with pytest.raises(ConfigError) as exc:
            materialize(from_config(cfg))
        assert "scenario.u.type" in str(exc.value)

    def test_family_takes_no_partition(self):
        with pytest.raises(ConfigError) as exc:
            materialize(from_config(minimal_config(**FAMILY_WITH_PARTITION)))
        assert str(exc.value).startswith("scenario.partition: ")

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


def table_rows(section, table):
    """(section, keys, row) for each row of a section table: keys is the dict
    of table keys that picks the row, through any nested table."""
    for key, row in table.rows.items():
        if isinstance(row, scenarios._Table):
            for _, keys, leaf in table_rows(section, row):
                yield section, {table.key: key, **keys}, leaf
        else:
            yield section, {table.key: key}, row


SCHEMA_ROWS = [*table_rows("space", scenarios._SPACES), *table_rows("u", scenarios._MULTIPLIERS)]
# A small valid value of each required field, by section; the space rows run
# with a law multiplier, the multiplier rows on a symmetric space of 4 atoms.
REQUIRED_VALUES = {
    "space": {"n_half": 2, "n": 4, "weights": [1.0, 2.0, 3.0, 4.0], "sizes": [2, 4]},
    "u": {"values": [1.0, 2.0, 3.0, 4.0], "name": "flat", "block": 1},
}
# The top-level fields a row needs besides its own: an explicit space takes its partition from the config.
ROW_CONTEXT = {("space", "explicit"): {"partition": {"labels": [0, 0, 1, 1]}}}


def required_fields(row):
    return [name for name, (_, default) in row.fields.items() if default is scenarios._REQUIRED]


def row_config(section, keys, row, drop=None):
    """A config giving only the row's keys and required fields, without `drop`."""
    values = {**keys, **{name: REQUIRED_VALUES[section][name] for name in required_fields(row)}}
    values.pop(drop, None)
    cfg = {**minimal_config(u={"type": "law", "name": "flat"}), section: values}
    return {**cfg, **ROW_CONTEXT.get((section, keys["type"]), {})}


def row_id(case):
    section, keys, _ = case
    return ".".join([section, *keys.values()])


@pytest.mark.parametrize("case", SCHEMA_ROWS, ids=row_id)
class TestSchemaTables:
    """Each row of the section tables parses, materializes and round-trips
    from its required fields alone, and names each one that is missing."""

    def test_required_fields_alone_materialize(self, case):
        section, keys, row = case
        scenario = from_config(row_config(section, keys, row))
        # The parsed section is the row's keys, then every field in table order.
        assert list(getattr(scenario, section)) == [*keys, *row.fields]
        assert materialize(scenario).operator.n_atoms > 0

    def test_each_missing_required_field_is_named(self, case):
        section, keys, row = case
        for name in [*keys, *required_fields(row)]:
            with pytest.raises(ConfigError) as exc:
                materialize(from_config(row_config(section, keys, row, drop=name)))
            assert str(exc.value).startswith(f"scenario.{section}.{name}: "), name

    def test_round_trip(self, case):
        scenario = from_config(row_config(*case))
        assert from_config(to_config(scenario)) == scenario


def test_readme_names_every_schema_key_and_field():
    readme = open(os.path.join(os.path.dirname(PERFBENCH), "README.md"), encoding="utf-8").read()
    schema = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
    for _, keys, row in SCHEMA_ROWS:
        for name in [*keys, *keys.values(), *row.fields]:
            assert f"`{name}`" in schema, name


class TestConjugatePairCheck:
    """young-calculus/conjugate_consistency is the one check of psi against phi*."""

    def test_a_mismatched_pair_fails_conjugate_consistency(self):
        mat = replace(materialize(from_config(minimal_config())), psi=young.scaled_power(3.0))
        checks = {check["name"]: check for check in run_suite("young-calculus", mat)["checks"]}
        check = checks["conjugate_consistency"]
        assert check["passed"] is False and check["value"] > check["tolerance"]
        assert "nonfinite" not in check

    @pytest.mark.parametrize("name", ["example-1.6a", "example-1.6b"])
    def test_gcthi_never_conjugates_numerically(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("gcthi called young.conjugate_numeric")

        monkeypatch.setattr(young, "conjugate_numeric", refuse)
        assert run_suite("gcthi", materialize(builtin_scenario(name)))["passed"]


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
            ({"young": {"kind": ["power"]}}, "scenario.young.kind"),
            ({"young": {"kind": {"a": 1}}}, "scenario.young.kind"),
            *UNHASHABLE_KEYS,
            (FAMILY_WITH_PARTITION, "scenario.partition"),
            *OVERFLOWING_NUMBERS,
        ],
    )
    def test_malformed_values_exit_two(self, capsys, tmp_path, mutation, field):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(minimal_config(**mutation)))
        assert cli.main(["run", "--config", str(cfg), "--suite", "spectrum"]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_total_weight_exits_two_from_every_verb(self, capsys, tmp_path):
        # Each weight is finite, their sum is not: every inverse of a block
        # mean downstream would see a NaN, so the space refuses the weights.
        cfg = tmp_path / "scenario.json"
        space = {"type": "explicit", "weights": [1e308] * 4}
        cfg.write_text(json.dumps(minimal_config(space=space, partition={"labels": [0, 0, 1, 1]})))
        for verb in ("run", "export-matrix"):
            assert cli.main([verb, "--config", str(cfg)]) == 2, verb
            err = capsys.readouterr().err
            assert "scenario.space.weights" in err and "Traceback" not in err, verb

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
        def failing(name, mat, k):
            if name != "spectrum":
                return run_part(name, mat, k)
            # spectrum is one part, whose value is its checks.
            return [{"name": "forced_failure", "passed": False, "value": 1.0, "bound": 0.0, "tolerance": 0.0}]

        monkeypatch.setattr(cli, "run_part", failing)  # the forked workers inherit the patch
        code = cli.main(["run", "--config", "spectrum-demo", "--format", "table"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_solver_out_of_budget_fails_its_suites(self, capsys, tmp_path):
        # |x|**p with p this close to 1 grows almost linearly, so the numeric
        # conjugate's bracket never closes within its doubling budget: the
        # young-calculus suite, the one that conjugates numerically, ends there.
        # gcthi takes the closed-form pair as given, and its search values
        # leave the float range, so each check it fails is flagged nonfinite.
        cfg = tmp_path / "near_linear.json"
        cfg.write_text(json.dumps(minimal_config(young={"kind": "power", "p": 1.0000000001})))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with np.errstate(all="ignore"):
            assert cli.main(["run", "--config", str(cfg)]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        suites = report["scenarios"][0]["suites"]
        (check,) = suites["young-calculus"]["checks"]
        assert check["name"] == "solver_budget_exhausted" and check["passed"] is False
        assert "doubling budget" in check["error"]
        assert suites["young-calculus"]["passed"] is False
        failed = [check for check in suites["gcthi"]["checks"] if not check["passed"]]
        assert failed and suites["gcthi"]["passed"] is False
        for check in failed:
            assert check["name"] != "solver_budget_exhausted" and check["nonfinite"] is True, check["name"]

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

    def test_a_nan_resolvent_residual_fails_as_nonfinite(self, capsys, tmp_path):
        # Block means 0 and 2.5 are finite, so lambdas are drawn, but u T f
        # overflows on the first block and every residual is NaN.  The largest
        # residual must be NaN, not the 0.0 a NaN-dropping max() leaves.
        cfg = tmp_path / "nan_resolvent.json"
        scenario = minimal_config(
            space={"type": "explicit", "weights": [1, 1, 1, 1]},
            partition={"labels": [0, 0, 1, 1]},
            u={"type": "explicit", "values": [1e300, -1e300, 2, 3]},
        )
        cfg.write_text(json.dumps(scenario))
        with np.errstate(all="ignore"):
            code = cli.main(["run", "--config", str(cfg), "--suite", "resolvent"])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err
        (check,) = json.loads(out)["scenarios"][0]["suites"]["resolvent"]["checks"]
        assert check["name"] == "inversion_residuals" and check["value"] == "NaN"
        assert check["passed"] is False and check["nonfinite"] is True

    def test_large_multiplier_passes_spectrum(self, capsys, tmp_path):
        # eigvals leaves imaginary parts near 1e-6 on this 5-atom block of
        # entries near 1e10: rounding relative to the spectrum, not a defect.
        cfg = tmp_path / "big_u.json"
        scenario = {
            "name": "big-u",
            "space": {"type": "explicit", "weights": [1, 1, 1, 1, 1]},
            "partition": {"labels": [0, 0, 0, 0, 0]},
            "young": {"kind": "scaled_power", "p": 2.0},
            "u": {"type": "explicit", "values": [1e10, 2e10, 3e10, 4e10, 5e10]},
        }
        cfg.write_text(json.dumps(scenario))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        code = cli.main(["run", "--config", str(cfg), "--suite", "spectrum"])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        (check,) = json.loads(out, parse_constant=reject)["scenarios"][0]["suites"]["spectrum"]["checks"]
        assert check["name"] == "predicted_matches_oracle" and check["passed"] is True

    # One block of equal atoms whose mean multiplier is 0 (or 1e-7): the block
    # is nilpotent up to that mean, and eigvals resolves its zero only to about
    # sqrt(eps) times the block's norm.
    @pytest.mark.parametrize(
        "u",
        [[9, -3, -6], [9, -3, -5.9999997], [3, -1, -1, -1], [1e3, -1e3, 5, -5]],
        ids=["mean-0", "mean-1e-7", "four-atoms", "large-pairs"],
    )
    def test_a_block_with_a_mean_near_zero_passes_every_suite(self, capsys, tmp_path, u):
        cfg = tmp_path / "zero_mean.json"
        space = {"type": "explicit", "weights": [1] * len(u)}
        scenario = minimal_config(space=space, partition={"labels": [0] * len(u)}, u={"type": "explicit", "values": u})
        cfg.write_text(json.dumps(scenario))
        code = cli.main(["run", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        (check,) = json.loads(out)["scenarios"][0]["suites"]["spectrum"]["checks"]
        assert check["name"] == "predicted_matches_oracle" and check["passed"] is True

    def test_a_block_mean_off_by_1e_6_fails_spectrum(self, monkeypatch):
        mat = materialize(builtin_scenario("spectrum-demo"))
        true_means = operators.mean_multiplier
        monkeypatch.setattr(operators, "mean_multiplier", lambda op: true_means(op) + [1e-6, 0.0])
        (check,) = run_suite("spectrum", mat)["checks"]
        assert check["name"] == "predicted_matches_oracle" and check["passed"] is False
        assert check["value"] > check["tolerance"]

    def test_an_oracle_rejection_fails_spectrum_without_a_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: np.full(len(m), 2.0 + 1e-3j))
        code = cli.main(["run", "--config", "spectrum-demo", "--suite", "spectrum"])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err
        (check,) = json.loads(out)["scenarios"][0]["suites"]["spectrum"]["checks"]
        assert check["name"] == "oracle_rejected" and check["passed"] is False
        assert "imaginary parts up to 0.001" in check["error"]

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

    def test_table_prints_the_seconds_of_each_scenario_and_suite(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        args = ["run", "--config", "spectrum-demo", "--suite", "spectrum", "--suite", "jensen"]
        assert cli.main([*args, "--format", "table", "--out", str(out_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        timing = json.loads(out_path.read_text())["timing"]
        (scenario,) = timing["scenarios"]
        assert lines[0] == f"scenario spectrum-demo: PASS in {scenario['seconds']:.3f} s"
        for suite, seconds in scenario["suites"].items():
            assert f"  {suite:<18} {seconds:.3f} s" in lines
        assert scenario["seconds"] == pytest.approx(sum(scenario["suites"].values()), rel=1e-12)
        assert lines[-1] == f"overall: PASS in {timing['total_seconds']:.3f} s on {timing['workers']} worker(s)"

    def test_table_prints_each_checks_rule_and_tolerance(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        args = ["run", "--config", "spectrum-demo", "--suite", "jensen", "--suite", "gcthi", "--format", "table"]
        assert cli.main([*args, "--out", str(out_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        suites = json.loads(out_path.read_text())["scenarios"][0]["suites"]
        for suite, result in suites.items():
            for check in result["checks"]:
                (line,) = [line for line in lines if f" {check['name']} " in line]
                assert f" rule={check['rule']} tolerance={check['tolerance']:.6g}" in line, line
                assert f"value={check['value']:.6g}" in line, line

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

    def test_a_run_does_not_import_numpy_ma(self, tmp_path):
        # np.unique reaches for numpy.ma on numpy 2, at a cost of about 17 ms per
        # process.  numpy 1.24 imports numpy.ma with numpy itself, so only the
        # modules the run adds are read.
        config = tmp_path / "exp-pair.json"
        code = (
            "import json, os, sys\n"
            f"sys.path.insert(0, {PERFBENCH!r})\n"
            "from workloads import config\n"
            "from orliczlab import cli\n"
            f"path = {str(config)!r}\n"
            "with open(path, 'w') as fh:\n"
            "    json.dump(config('exp-pair', 0), fh)\n"
            "before = set(sys.modules)\n"
            "for name in ('example-1.6a', path):\n"
            "    cli.main(['run', '--config', name, '--out', os.devnull])\n"
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_export_matrix(self, tmp_path):
        want = np.array(
            [
                [0.5, 1.5, 0.0, 0.0],
                [0.5, 1.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        # The builtin by name, and a {"scenarios": [...]} config that lists it alone.
        listed = tmp_path / "one.json"
        listed.write_text(json.dumps({"scenarios": [to_config(builtin_scenario("spectrum-demo"))]}))
        out_file = tmp_path / "matrix.csv"
        for config in ("spectrum-demo", str(listed)):
            assert cli.main(["export-matrix", "--config", config, "--out", str(out_file)]) == 0
            assert np.array_equal(np.loadtxt(out_file, delimiter=","), want)

    def test_export_matrix_of_several_scenarios_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps({"scenarios": [minimal_config(), minimal_config(name="tiny2")]}))
        out_file = tmp_path / "matrix.csv"
        assert cli.main(["export-matrix", "--config", str(cfg), "--out", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: config.scenarios:") and "got 2" in captured.err
        assert captured.out == "" and not out_file.exists()

    def test_export_matrix_of_a_family_is_its_middle_member(self, tmp_path):
        out_file = tmp_path / "matrix.csv"
        assert cli.main(["export-matrix", "--config", "decay-family", "--out", str(out_file)]) == 0
        got = np.loadtxt(out_file, delimiter=",")
        assert got.shape == (128, 128)
        want = materialize(builtin_scenario("decay-family")).family.members[1][1]
        assert want.n_atoms == 128 and np.array_equal(got, want.matrix)

    def test_export_matrix_does_not_read_the_scenario_seed(self, tmp_path):
        # u's own seed draws u; the scenario seed feeds only the suites' samples.
        # A third config with another u.seed shows that the bytes can move.
        def export(seed, u_seed):
            cfg, out_file = tmp_path / "scenario.json", tmp_path / f"{seed}-{u_seed}.csv"
            u = {"type": "generator", "name": "random_uniform", "seed": u_seed}
            cfg.write_text(json.dumps(minimal_config(seed=seed, u=u)))
            assert cli.main(["export-matrix", "--config", str(cfg), "--out", str(out_file)]) == 0
            return out_file.read_bytes()

        assert export(0, 5) == export(123, 5) != export(0, 6)

    def test_export_matrix_takes_no_seed_option(self):
        argv = [sys.executable, "-m", "orliczlab", "export-matrix", "--config", "spectrum-demo", "--seed", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "unrecognized arguments: --seed 1" in proc.stderr

    def test_relative_out_is_under_the_working_directory(self, tmp_path, monkeypatch, capsys):
        # The environment has no say in where a relative --out lands.
        env_dir, work_dir = tmp_path / "env", tmp_path / "work"
        env_dir.mkdir()
        work_dir.mkdir()
        monkeypatch.setenv("ORLICZLAB_OUT_DIR", str(env_dir))
        monkeypatch.chdir(work_dir)
        assert cli.main(["run", "--config", "spectrum-demo", "--suite", "spectrum", "--out", "r.json"]) == 0
        assert cli.main(["export-matrix", "--config", "spectrum-demo", "--out", "m.csv"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in work_dir.iterdir()) == ["m.csv", "r.json"]
        assert list(env_dir.iterdir()) == []

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")], ids=["default", "preset-2"])
    def test_openblas_gets_one_thread_unless_the_caller_chose(self, preset, want):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, orliczlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [want]

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


def three_scenarios(tmp_path, replace=None):
    """A 3-scenario config file (two Young kinds, three seeds, small budgets), with items replaced by index."""
    items = [
        minimal_config(name="a", budget=300, seed=1),
        minimal_config(name="b", budget=300, seed=2, young={"kind": "exp_type"}),
        minimal_config(name="c", budget=300, seed=3, space={"type": "symmetric", "n_half": 4}),
    ]
    for index, item in (replace or {}).items():
        items[index] = item
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps({"scenarios": items}))
    return str(cfg)


def with_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)), raising=False)


def assert_no_child_left():
    """No child process of this one is left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in(fail, suite=None, scenario=None):
    """A stand-in for cli.run_part (the forked workers inherit it) that calls fail() on the tasks
    of `suite` on `scenario` (every one where None), but only in a forked worker, and runs the rest."""
    parent = os.getpid()

    def run(name, mat, k):
        if suite in (None, name) and scenario in (None, mat.scenario.name):
            assert os.getpid() != parent, "a planted failure ran in the parent"
            fail()
        return run_part(name, mat, k)

    return run


def raise_(exc):
    raise exc


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("no pickling")


class TwoArguments(Exception):
    """Pickles, but does not unpickle: its args hold one of the two arguments its __init__ takes."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def workload_scenarios(name):
    """The scenarios of perfbench/workloads.py's workload `name` at seed 0."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:  # registered before it runs: a dataclass looks its module up in sys.modules
        spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        module = sys.modules["perfbench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.scenarios(name, 0)


class TestScenarioWorkers:
    """A `run` forks min(CPUs, 2, tasks) workers over its (scenario, suite, part) tasks; one worker forks none."""

    def test_report_does_not_depend_on_the_worker_count(self, capsys, monkeypatch, tmp_path):
        config = three_scenarios(tmp_path)
        reports = []
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            with np.errstate(all="ignore"):
                code = cli.main(["run", "--config", config])
            reports.append((code, json.loads(capsys.readouterr().out)))
        timings = [report.pop("timing") for _, report in reports]
        assert reports[0] == reports[1]
        assert [t["workers"] for t in timings] == [1, 2]
        for timing in timings:
            assert len(timing["scenarios"]) == 3
            for scenario in timing["scenarios"]:
                assert sorted(scenario["suites"]) == sorted(suites_mod.SUITE_ORDER)
                assert scenario["seconds"] == pytest.approx(sum(scenario["suites"].values()), rel=1e-12)
                assert 0.0 < scenario["seconds"] <= timing["total_seconds"] * timing["workers"]
        assert_no_child_left()

    def test_one_scenario_fans_its_suites_out(self, capsys, monkeypatch):
        reports = []
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            code = cli.main(["run", "--config", "example-1.6b"])
            reports.append((code, json.loads(capsys.readouterr().out)))
        timings = [report.pop("timing") for _, report in reports]
        assert reports[0] == reports[1]
        assert [t["workers"] for t in timings] == [1, 2]
        assert sorted(reports[0][1]["scenarios"][0]["suites"]) == sorted(suites_mod.SUITE_ORDER)
        assert_no_child_left()

    def test_searches_go_first_largest_first_then_config_order(self):
        # The symmetric-sweep workload: scaled_power on 128, 512 and 2048 atoms at the default
        # budget of 10,000, so each gcthi has a ratio and a unit search of 10,000 samples and a
        # normalization search of 2,000; samples x atoms orders them, ties in config order.
        mats = [materialize(s) for s in workload_scenarios("symmetric-sweep")]
        assert [(m.scenario.name, m.scenario.budget) for m in mats] == [
            ("symmetric-128", 10_000),
            ("symmetric-512", 10_000),
            ("symmetric-2048", 10_000),
        ]
        tasks = cli._tasks(mats, suites_mod.SUITE_ORDER)
        order = [(mat.scenario.name, suite, k) for mat, suite, k, _ in (tasks[i] for i in cli._task_order(tasks))]
        searches = [
            ("symmetric-2048", "gcthi", 0),
            ("symmetric-2048", "gcthi", 1),
            ("symmetric-512", "gcthi", 0),
            ("symmetric-512", "gcthi", 1),
            ("symmetric-2048", "gcthi", 2),
            ("symmetric-128", "gcthi", 0),
            ("symmetric-128", "gcthi", 1),
            ("symmetric-512", "gcthi", 2),
            ("symmetric-128", "gcthi", 2),
        ]
        rest = [(m.scenario.name, suite, 0) for m in mats for suite in suites_mod.SUITE_ORDER if suite != "gcthi"]
        assert order == searches + rest
        assert cli._task_order(cli._tasks(mats, ("spectrum", "jensen"))) == list(range(6))
        # The exp pair has no unit search: a ratio and a normalization search.
        (exp,) = [materialize(s) for s in workload_scenarios("exp-pair")]
        assert [(k, size) for _, _, k, size in cli._tasks([exp], ("gcthi",))] == [(0, 10_000 * 128), (1, 2_000 * 128)]

    def test_first_bad_scenario_exits_two_before_any_worker(self, capsys, monkeypatch, tmp_path):
        config = three_scenarios(
            tmp_path,
            {
                1: minimal_config(name="no-partition", space={"type": "explicit", "weights": [1.0, 1.0]}),
                2: minimal_config(name="short-u", u={"type": "explicit", "values": [1.0, 2.0]}),
            },
        )

        def never(*_args):
            raise AssertionError("a suite ran although a scenario failed to materialize")

        monkeypatch.setattr(cli, "run_part", never)
        errors = []
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            assert cli.main(["run", "--config", config]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "scenario.partition" in errors[0] and "scenario.u.values" not in errors[0]
        assert_no_child_left()

    @pytest.mark.parametrize("expected", [0, 2], ids=["passed", "config-error-in-a-worker"])
    def test_no_worker_outlives_main(self, capsys, monkeypatch, tmp_path, expected):
        with_cpus(monkeypatch, 2)
        if expected == 2:
            planted = ConfigError("scenario.young: planted failure")
            monkeypatch.setattr(cli, "run_part", fail_in(partial(raise_, planted), "spectrum", "b"))
        with np.errstate(all="ignore"):
            assert cli.main(["run", "--config", three_scenarios(tmp_path), "--suite", "spectrum"]) == expected
        assert ("planted failure" in capsys.readouterr().err) == (expected == 2)
        assert_no_child_left()

    # In one suite, the failing worker may be read last, after the other has ended; in every
    # task, the first worker read has failed while the other may still run, and is stopped.
    @pytest.mark.parametrize("suite", ["jensen", None], ids=["in-one-suite", "in-every-task"])
    @pytest.mark.parametrize(
        "fail, message",
        [
            (partial(raise_, RuntimeError("planted")), "^planted$"),
            (partial(raise_, Unpicklable("planted")), r"^Unpicklable\('planted'\)$"),
            (partial(raise_, TwoArguments("planted", 7)), r"^TwoArguments\('planted'\)$"),
            (partial(os._exit, 3), "^a run worker ended with exit status 3 and no result$"),
        ],
        ids=["runtime-error", "unpicklable", "not-unpicklable", "worker-died"],
    )
    def test_a_worker_failure_reaches_the_parent(self, monkeypatch, fail, message, suite):
        with_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "run_part", fail_in(fail, suite))
        with pytest.raises(RuntimeError, match=message) as raised:
            cli.main(["run", "--config", "example-1.6a"])
        assert type(raised.value) is RuntimeError
        assert_no_child_left()

    @pytest.mark.parametrize(
        "setup",
        [
            "argv = ['run', '--config', 'spectrum-demo', '--suite', 'spectrum']",
            "os.sched_getaffinity = lambda _pid: {0}\n"
            "argv = ['run', '--config', CONFIG, '--suite', 'spectrum']",
            "os.sched_getaffinity = lambda _pid: {0, 1}\n"
            "argv = ['run', '--config', CONFIG, '--suite', 'spectrum', '--suite', 'jensen']",
        ],
        ids=["one-scenario", "one-cpu", "two-cpus"],
    )
    def test_no_run_imports_multiprocessing(self, tmp_path, setup):
        code = (
            "import os, sys\n"
            f"CONFIG = {three_scenarios(tmp_path)!r}\n"
            f"{setup}\n"
            "from orliczlab import cli\n"
            "code = cli.main(argv)\n"
            "sys.exit(code or 10 * ('multiprocessing' in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestSearchParts:
    """gcthi runs as its searches, each its own task; the parent judges the suite from their values."""

    @pytest.mark.parametrize("failing", [("normalization",), ("ratio", "normalization")], ids="-and-".join)
    def test_a_failing_search_part_gives_the_serial_record(self, capsys, monkeypatch, tmp_path, failing):
        # A scaled_power pair: a ratio, a unit and a normalization search.  However the parts
        # are spread over workers and whichever ends first, the record must carry the first
        # failure in suite order, the ratio search's when it fails.
        config = minimal_config(budget=300, seed=4)
        search = suites_mod.empirical_holder_constant

        def ratio_search(*args):
            if "ratio" in failing and args[-1] == config["seed"] + 17:
                raise BracketFailure("planted in the ratio search")
            return search(*args)

        def normalization_search(*_args):
            raise BracketFailure("planted in the normalization search")

        monkeypatch.setattr(suites_mod, "empirical_holder_constant", ratio_search)
        monkeypatch.setattr(suites_mod, "normalization_constants", normalization_search)
        mat = materialize(from_config(config))
        assert suites_mod.part_samples("gcthi", mat) == [300, 300, 2_000]
        want = run_suite("gcthi", mat)
        error = f"planted in the {failing[0]} search"
        assert want == {
            "suite": "gcthi",
            "passed": False,
            "checks": [{"name": "solver_budget_exhausted", "rule": "raised", "error": error, "passed": False}],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(config))
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            assert cli.main(["run", "--config", str(path), "--suite", "gcthi"]) == 1
            report = json.loads(capsys.readouterr().out)
            assert report["timing"]["workers"] == cpus
            assert report["scenarios"][0]["suites"]["gcthi"] == want
        assert_no_child_left()

    def test_no_run_starts_a_thread(self, capsys, monkeypatch, tmp_path):
        # The exp-pair workload's scenario and its sweep's 2048-atom power scenario (budget cut
        # to 1,000, eight chunks a search), in process and through `run` on two workers, which
        # inherit the patch: a search that started a thread would raise in either.
        def refuse(_thread):
            raise AssertionError("a thread was started")

        (exp,) = workload_scenarios("exp-pair")
        power = replace(workload_scenarios("symmetric-sweep")[-1], budget=1_000)
        assert materialize(power).operator.n_atoms == 2048
        monkeypatch.setattr(threading.Thread, "start", refuse)
        with_cpus(monkeypatch, 2)
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"scenarios": [to_config(exp), to_config(power)]}))
        records = [run_suite("gcthi", materialize(scenario)) for scenario in (exp, power)]
        assert cli.main(["run", "--config", str(path), "--suite", "gcthi"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["timing"]["workers"] == 2
        assert [section["suites"]["gcthi"] for section in report["scenarios"]] == records
        assert_no_child_left()
