"""Scenario schema: config parsing, builtin catalog, and materialization.

A scenario bundles one measure-space setup (or a refinement family), one
Young-function pair, one multiplier, and the seed and search budget the
suites should use.  Configs are plain JSON-compatible dicts; every parse
failure names the offending field, and a key no field reads is ignored.
A space or multiplier section is read off its table, _SPACES or _MULTIPLIERS,
whose row holds the section's fields and the function that builds its object.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import young as young_mod
from .errors import ConfigError
from .measure import MeasureSpace, Partition, build_rotation_space, build_symmetric_space
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


def _int_at_least(least: int, what: str) -> Callable:
    def parse(value, where: str) -> int:
        v = _as_int(value, where)
        if v < least:
            raise ConfigError(f"{where}: must be {what}, got {v}")
        return v
    return parse


as_seed = _int_at_least(0, "nonnegative")  # numpy's generators take nonnegative integer seeds only
_as_positive_int = _int_at_least(1, "positive")


def _list_of(item: Callable, expected: str, nonempty: bool = True) -> Callable:
    """A field parser of a list, each item parsed by `item` under the list's name."""
    def parse(value, where: str) -> list:
        if not isinstance(value, list) or nonempty and not value:
            raise ConfigError(f"{where}: expected {expected}")
        return [item(v, where) for v in value]
    return parse


def _law(name, where: str) -> str:
    if not isinstance(name, str) or name not in RefinementFamily.LAWS:  # an unhashable name is unknown too
        raise ConfigError(f"{where}: unknown law {name!r}; choose from {tuple(RefinementFamily.LAWS)}")
    return name


def _explicit_u(space: MeasureSpace, partition: Partition, values: list) -> np.ndarray:
    if len(values) != space.n_atoms:
        raise ConfigError(f"u.values: got {len(values)} values for {space.n_atoms} atoms")
    return np.asarray(values, dtype=float)


def _indicator(space: MeasureSpace, partition: Partition, block: int) -> np.ndarray:
    if not 0 <= block < partition.n_blocks:
        raise ConfigError(f"u.block: block {block} out of range for {partition.n_blocks} blocks")
    return (partition.labels == block).astype(float)


class _Row(NamedTuple):
    """One type of a section: its fields, name -> (parser, default), in parse
    and write order, and the function that builds the section's object from
    them by name.  A space row builds (space, partition), with None for a
    partition the config must give; the family row builds a RefinementFamily
    from u's law.  A multiplier row builds u's values on (space, partition)."""

    build: Callable
    fields: dict


class _Table(NamedTuple):
    """The rows a section picks from by the string in its field `key`; a row
    may itself be a table that picks by a further field."""

    key: str
    noun: str  # what an unknown key is called in its error
    rows: dict


_REQUIRED = object()  # the default of a field that a config must give
_COUNT, _FLOATS = (_as_positive_int, _REQUIRED), (_list_of(_as_float, "a nonempty list"), _REQUIRED)
_SPACES = _Table("type", "space type", {
    "symmetric": _Row(build_symmetric_space, {"n_half": _COUNT}),
    "rotation": _Row(build_rotation_space, {"n": _COUNT, "cells_per_block_orbit": (_as_positive_int, 1)}),
    "explicit": _Row(lambda weights: (MeasureSpace(weights), None), {"weights": _FLOATS}),
    # RefinementFamily checks the count and order of the sizes.
    "family": _Row(
        lambda sizes, atoms_per_block, law: RefinementFamily(law, tuple(sizes), atoms_per_block),
        {
            "sizes": (_list_of(_as_positive_int, "a list of block counts", nonempty=False), _REQUIRED),
            "atoms_per_block": (_as_positive_int, 2),
        },
    ),
})
_MULTIPLIERS = _Table("type", "multiplier type", {
    "explicit": _Row(_explicit_u, {"values": _FLOATS}),
    "law": _Row(lambda space, part, name: law_values(name, part.n_blocks)[part.labels], {"name": (_law, _REQUIRED)}),
    "generator": _Table("name", "generator", {
        "identity": _Row(
            lambda space, _: np.asarray(range(space.n_atoms) if space.labels is None else space.labels, dtype=float), {}
        ),
        "random_uniform": _Row(
            lambda space, _, seed: np.random.default_rng(seed).uniform(0.0, 1.0, space.n_atoms), {"seed": (as_seed, 0)}
        ),
        "indicator": _Row(_indicator, {"block": (_as_int, _REQUIRED)}),
    }),
})


def _parse_section(cfg, where: str, table: _Table) -> dict:
    """A section as the key that picks its row, then the row's fields in order."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object")
    key = _require(cfg, table.key, where)
    row = table.rows.get(key) if isinstance(key, str) else None  # an unhashable key is unknown too
    if row is None:
        raise ConfigError(f"{where}.{table.key}: unknown {table.noun} {key!r}")
    if isinstance(row, _Table):
        return {table.key: key, **_parse_section(cfg, where, row)}
    out = {table.key: key}
    for name, (parse, default) in row.fields.items():
        value = _require(cfg, name, where) if default is _REQUIRED else cfg.get(name, default)
        out[name] = parse(value, f"{where}.{name}")
    return out


def _build(table: _Table, spec: dict, *args, **kwargs):
    """What a parsed section describes: its row's build function called with
    args, kwargs and the section's fields."""
    row = table.rows[spec[table.key]]
    if isinstance(row, _Table):
        return _build(row, spec, *args, **kwargs)
    return row.build(*args, **kwargs, **{name: spec[name] for name in row.fields})


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
        space=_parse_section(_require(cfg, "space", "scenario"), "scenario.space", _SPACES),
        young={"kind": phi.kind, "p": phi.p} if phi.row.takes_p else {"kind": phi.kind},
        u=_parse_section(_require(cfg, "u", "scenario"), "scenario.u", _MULTIPLIERS),
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


def _operator(scenario: Scenario) -> tuple[WeightedConditionalExpectation, RefinementFamily | None]:
    """(operator, family); a ConfigError names its field below `scenario.`."""
    sp, u = scenario.space, scenario.u
    if sp["type"] == "family":  # each member builds its own partition, and its u from u's law
        if u["type"] != "law":
            raise ConfigError("u.type: family scenarios need a block law multiplier")
        family = _build(_SPACES, sp, law=u["name"])
        if scenario.partition is not None:
            raise ConfigError("partition: a family space takes none; each member builds its own")
        return family.members[len(family.sizes) // 2][1], family
    space, partition = _build(_SPACES, sp)
    if scenario.partition is not None:
        try:
            labels = np.asarray(scenario.partition["labels"], dtype=int)
        except OverflowError:
            raise ConfigError("partition.labels: block ids must be 0..n_blocks-1 with no gaps") from None
        if labels.size != space.n_atoms:
            raise ConfigError(f"partition.labels: got {labels.size} labels for {space.n_atoms} atoms")
        partition = Partition(labels)
    elif partition is None:
        raise ConfigError("partition: required for explicit spaces")
    return WeightedConditionalExpectation(space, partition, _build(_MULTIPLIERS, u, space, partition)), None


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
