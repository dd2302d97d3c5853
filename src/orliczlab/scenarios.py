"""Scenario schema: config parsing, builtin catalog, and materialization.

A scenario bundles one measure-space setup (or a refinement family), one
Young-function pair, one multiplier, and the seed and search budget the
suites should use.  Configs are plain JSON-compatible dicts; every parse
failure names the offending field, and a key no field reads is ignored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import young as young_mod
from .errors import ConfigError
from .measure import (
    MeasureSpace,
    Partition,
    build_rotation_space,
    build_symmetric_space,
)
from .operators import RefinementFamily, WeightedConditionalExpectation, boundedness_classifier, law_values
from .young import YoungFunction, _as_float

__all__ = [
    "Scenario",
    "Materialized",
    "BUILTIN_ORDER",
    "builtin_scenario",
    "from_config",
    "to_config",
    "materialize",
]


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one laboratory setup."""

    name: str
    description: str
    space: dict
    young: dict
    u: dict
    partition: dict | None = None
    seed: int = 0
    budget: int = 10_000


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}.{key}: required field is missing")
    return cfg[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def as_seed(value, where: str) -> int:
    """A seed: numpy's generators take nonnegative integers only."""
    v = _as_int(value, where)
    if v < 0:
        raise ConfigError(f"{where}: must be nonnegative, got {v}")
    return v


def _as_positive_int(value, where: str) -> int:
    v = _as_int(value, where)
    if v < 1:
        raise ConfigError(f"{where}: must be positive, got {v}")
    return v


def _parse_space(cfg, where: str = "scenario.space") -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _require(cfg, "type", where)
    if kind == "symmetric":
        return {"type": "symmetric", "n_half": _as_positive_int(_require(cfg, "n_half", where), f"{where}.n_half")}
    if kind == "rotation":
        return {
            "type": "rotation",
            "n": _as_positive_int(_require(cfg, "n", where), f"{where}.n"),
            "cells_per_block_orbit": _as_positive_int(
                cfg.get("cells_per_block_orbit", 1), f"{where}.cells_per_block_orbit"
            ),
        }
    if kind == "explicit":
        weights = _require(cfg, "weights", where)
        if not isinstance(weights, list) or not weights:
            raise ConfigError(f"{where}.weights: expected a nonempty list")
        return {"type": "explicit", "weights": [_as_float(w, f"{where}.weights") for w in weights]}
    if kind == "family":
        sizes = _require(cfg, "sizes", where)
        if not isinstance(sizes, list):  # RefinementFamily checks their count and order
            raise ConfigError(f"{where}.sizes: expected a list of block counts")
        return {
            "type": "family",
            "sizes": [_as_positive_int(s, f"{where}.sizes") for s in sizes],
            "atoms_per_block": _as_positive_int(
                cfg.get("atoms_per_block", 2), f"{where}.atoms_per_block"
            ),
        }
    raise ConfigError(f"{where}.type: unknown space type {kind!r}")


def _parse_u(cfg, where: str = "scenario.u") -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _require(cfg, "type", where)
    if kind == "explicit":
        values = _require(cfg, "values", where)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}.values: expected a nonempty list")
        return {"type": "explicit", "values": [_as_float(v, f"{where}.values") for v in values]}
    if kind == "law":
        name = _require(cfg, "name", where)
        if name not in RefinementFamily.LAWS:
            raise ConfigError(
                f"{where}.name: unknown law {name!r}; choose from {tuple(RefinementFamily.LAWS)}"
            )
        return {"type": "law", "name": name}
    if kind == "generator":
        name = _require(cfg, "name", where)
        if name not in ("identity", "random_uniform", "indicator"):
            raise ConfigError(f"{where}.name: unknown generator {name!r}")
        out = {"type": "generator", "name": name}
        if name == "random_uniform":
            out["seed"] = as_seed(cfg.get("seed", 0), f"{where}.seed")
        if name == "indicator":
            out["block"] = _as_int(_require(cfg, "block", where), f"{where}.block")
        return out
    raise ConfigError(f"{where}.type: unknown multiplier type {kind!r}")


def from_config(cfg: dict) -> Scenario:
    """Parse a scenario dict, normalizing every field and naming bad ones."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario: expected an object")
    name = _require(cfg, "name", "scenario")
    if not isinstance(name, str) or not name:
        raise ConfigError("scenario.name: expected a nonempty string")
    description = cfg.get("description", "")
    if not isinstance(description, str):
        raise ConfigError("scenario.description: expected a string")
    young_cfg = _require(cfg, "young", "scenario")
    try:
        phi = young_mod.from_config(young_cfg)
    except ConfigError as exc:
        raise ConfigError(f"scenario.{exc}") from exc
    partition = cfg.get("partition")
    if partition is not None:
        if not isinstance(partition, dict) or not isinstance(partition.get("labels"), list):
            raise ConfigError("scenario.partition: expected an object with a 'labels' list")
        partition = {"labels": [_as_int(l, "scenario.partition.labels") for l in partition["labels"]]}
    return Scenario(
        name=name,
        description=description,
        space=_parse_space(_require(cfg, "space", "scenario")),
        young={"kind": phi.kind, "p": phi.p} if phi.row.takes_p else {"kind": phi.kind},
        u=_parse_u(_require(cfg, "u", "scenario")),
        partition=partition,
        seed=as_seed(cfg.get("seed", 0), "scenario.seed"),
        budget=_as_positive_int(cfg.get("budget", 10_000), "scenario.budget"),
    )


def to_config(scenario: Scenario) -> dict:
    """Serialize back to the config dict form, one key per Scenario field with
    an unset partition left out; from_config round-trips it."""
    out = asdict(scenario)
    if out["partition"] is None:
        del out["partition"]
    return out


@dataclass(frozen=True)
class Materialized:
    """Module-level objects resolved from a scenario.

    `operator` holds the space, partition and u the single-space suites read.
    A family scenario also has `family`, and its `operator` is the family's
    own middle member, so the classifier, the essential-norm trend and every
    single-space suite share one set of operators and the levels and norm
    brackets solved on them.
    """

    scenario: Scenario
    phi: YoungFunction
    psi: YoungFunction
    operator: WeightedConditionalExpectation = field(repr=False)
    family: RefinementFamily | None = None

    @property
    def is_family(self) -> bool:
        return self.family is not None

    @cached_property
    def trend_verdict(self) -> dict:
        """The family's classifier verdict, shared by the suites that report it."""
        return boundedness_classifier(self.family, self.phi, self.psi)


def _materialize_u(scenario: Scenario, space: MeasureSpace, partition: Partition) -> np.ndarray:
    spec = scenario.u
    if spec["type"] == "explicit":
        values = np.asarray(spec["values"], dtype=float)
        if values.size != space.n_atoms:
            raise ConfigError(
                f"u.values: got {values.size} values for {space.n_atoms} atoms"
            )
        return values
    if spec["type"] == "law":
        return law_values(spec["name"], partition.n_blocks)[partition.labels]
    name = spec["name"]
    if name == "identity":
        if space.labels is not None:
            return np.asarray(space.labels, dtype=float)
        return np.arange(space.n_atoms, dtype=float)
    if name == "random_uniform":
        rng = np.random.default_rng(spec.get("seed", 0))
        return rng.uniform(0.0, 1.0, space.n_atoms)
    block = spec["block"]
    if not 0 <= block < partition.n_blocks:
        raise ConfigError(
            f"u.block: block {block} out of range for {partition.n_blocks} blocks"
        )
    return (partition.labels == block).astype(float)


def _operator(scenario: Scenario) -> tuple[WeightedConditionalExpectation, RefinementFamily | None]:
    """(operator, family); a ConfigError names its field below `scenario.`."""
    sp = scenario.space
    if sp["type"] == "family":
        if scenario.u["type"] != "law":
            raise ConfigError("u.type: family scenarios need a block law multiplier")
        family = RefinementFamily(
            law=scenario.u["name"],
            sizes=tuple(sp["sizes"]),
            atoms_per_block=sp["atoms_per_block"],
        )
        return family.members[len(family.sizes) // 2][1], family

    if sp["type"] == "symmetric":
        space, partition = build_symmetric_space(sp["n_half"])
    elif sp["type"] == "rotation":
        space, partition = build_rotation_space(sp["n"], sp["cells_per_block_orbit"])
    else:
        space, partition = MeasureSpace(np.asarray(sp["weights"], dtype=float)), None
    if scenario.partition is not None:
        labels = np.asarray(scenario.partition["labels"], dtype=int)
        if labels.size != space.n_atoms:
            raise ConfigError(
                f"partition.labels: got {labels.size} labels for {space.n_atoms} atoms"
            )
        partition = Partition(labels)
    elif partition is None:
        raise ConfigError("partition: required for explicit spaces")
    u = _materialize_u(scenario, space, partition)
    return WeightedConditionalExpectation(space, partition, u), None


def materialize(scenario: Scenario) -> Materialized:
    """Resolve the scenario into module objects, failing with field-precise errors."""
    phi = young_mod.from_config(scenario.young)
    psi = young_mod.conjugate_closed_form(phi)
    try:
        op, family = _operator(scenario)
    except ConfigError as exc:
        raise ConfigError(f"scenario.{exc}") from exc
    return Materialized(scenario, phi, psi, op, family)


_BUILTINS = {
    "example-1.6a": Scenario(
        name="example-1.6a",
        description="symmetric interval space, power-pair multiplicativity: conditional two-function bound with constant 1",
        space={"type": "symmetric", "n_half": 4},
        young={"kind": "scaled_power", "p": 2.0},
        u={"type": "explicit", "values": [0.5, 1.0, 2.0, 1.5, 1.5, 2.0, 1.0, 0.5]},
        seed=1061,
    ),
    "example-1.6b": Scenario(
        name="example-1.6b",
        description="symmetric interval space, exponential pair: domination constant 2 gives the conditional bound with constant 4",
        space={"type": "symmetric", "n_half": 4},
        young={"kind": "exp_type"},
        u={"type": "explicit", "values": [0.5, 1.5, 2.5, 2.0, 1.0, 3.0, 0.25, 1.25]},
        seed=1062,
    ),
    "example-1.6d": Scenario(
        name="example-1.6d",
        description="circle rotation space with 3-cell orbits: domination constant 3 gives the conditional bound with constant 9",
        space={"type": "rotation", "n": 3, "cells_per_block_orbit": 2},
        young={"kind": "scaled_power", "p": 3.0},
        u={"type": "explicit", "values": [1.0, 0.5, 2.0, 1.5, 0.75, 1.25]},
        seed=1064,
    ),
    "spectrum-demo": Scenario(
        name="spectrum-demo",
        description="four equal atoms in two blocks with multiplier [1,3,2,2]: predicted eigenvalues {2,2,0,0}",
        space={"type": "explicit", "weights": [1.0, 1.0, 1.0, 1.0]},
        partition={"labels": [0, 0, 1, 1]},
        young={"kind": "scaled_power", "p": 2.0},
        u={"type": "explicit", "values": [1.0, 3.0, 2.0, 2.0]},
        seed=2050,
    ),
    "decay-family": Scenario(
        name="decay-family",
        description="refinement family with multiplier 1/j on block j: bounded and compact, vanishing essential-norm surrogate",
        space={"type": "family", "sizes": [16, 64, 256], "atoms_per_block": 2},
        young={"kind": "scaled_power", "p": 2.0},
        u={"type": "law", "name": "reciprocal"},
        seed=3001,
    ),
    "flat-family": Scenario(
        name="flat-family",
        description="refinement family with constant multiplier 1: bounded but not compact, essential-norm surrogate pinned at 1",
        space={"type": "family", "sizes": [16, 64, 256], "atoms_per_block": 2},
        young={"kind": "scaled_power", "p": 2.0},
        u={"type": "law", "name": "flat"},
        seed=3002,
    ),
    "growth-family": Scenario(
        name="growth-family",
        description="refinement family with multiplier log(1+j): level sups grow without bound, unbounded operator trend",
        space={"type": "family", "sizes": [16, 64, 256], "atoms_per_block": 2},
        young={"kind": "scaled_power", "p": 2.0},
        u={"type": "law", "name": "log_growth"},
        seed=3003,
    ),
}

BUILTIN_ORDER = tuple(_BUILTINS)


def builtin_scenario(name: str, seed_override: int | None = None) -> Scenario:
    if name not in _BUILTINS:
        raise ConfigError(
            f"scenario.name: unknown builtin {name!r}; known: {', '.join(BUILTIN_ORDER)}"
        )
    scenario = _BUILTINS[name]
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)
    return scenario
