"""The benchmark's workloads: one scenario config each, generated from a seed.

The seed moves every search seed (the scenario `seed` field that drives the
Hölder search, the norm search and the randomized checks).  Spaces, Young
pairs and multipliers stay fixed, so the values that no search produces are
the same at every seed and can be frozen once.  Seed 0 reproduces the builtin
seeds and the documented scenario seed 5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from orliczlab.scenarios import BUILTIN_ORDER, Scenario, builtin_scenario, to_config


@dataclass(frozen=True)
class Workload:
    """A workload runs every suite on the scenarios that `scenarios()` builds."""

    name: str
    # (scenario, suite, check) triples known to fail: program defects recorded
    # as they stand, counted in check_pass_ratio and allowed by the gate.
    known_defects: tuple[tuple[str, str, str], ...] = ()


# The jensen convexity check fails on exp_type whenever a sampled block average
# overflows: phi(E|f|) and E(phi(f)) are both inf, inf - inf is NaN, and
# max() swallows it, so the reported value stays near -2e-14 (ROADMAP item 4,
# "Masked NaN").  With 64 blocks, exp-pair fails at every seed tried; with 4
# blocks, example-1.6b passes at seed 0 and fails at some other seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "builtin-matrix",
            known_defects=(("example-1.6b", "jensen", "convexity_inequality"),),
        ),
        Workload("symmetric-sweep"),
        Workload(
            "exp-pair",
            known_defects=(("exp-pair-128", "jensen", "convexity_inequality"),),
        ),
    )
}


def _symmetric(name: str, n_half: int, young: dict, seed: int) -> Scenario:
    return Scenario(
        name=name,
        description=f"symmetric space, {2 * n_half} atoms, random_uniform u (seed 7)",
        space={"type": "symmetric", "n_half": n_half},
        young=young,
        u={"type": "generator", "name": "random_uniform", "seed": 7},
        seed=5 + seed,
    )


def scenarios(workload: str, seed: int) -> list[Scenario]:
    if workload == "builtin-matrix":
        return [
            replace(s, seed=s.seed + seed) for s in map(builtin_scenario, BUILTIN_ORDER)
        ]
    if workload == "symmetric-sweep":
        power = {"kind": "scaled_power", "p": 2.0}
        return [_symmetric(f"symmetric-{2 * h}", h, power, seed) for h in (64, 256, 1024)]
    if workload == "exp-pair":
        return [_symmetric("exp-pair-128", 64, {"kind": "exp_type"}, seed)]
    raise KeyError(workload)


def config(workload: str, seed: int) -> dict:
    """The `{"scenarios": [...]}` config the CLI reads for this workload and seed."""
    return {"scenarios": [to_config(s) for s in scenarios(workload, seed)]}
