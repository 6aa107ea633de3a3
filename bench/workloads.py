"""Workload definitions: seeded American-put instances and the experiment list.

The program under test only ever sees the config files written here. Each
run draws four instances from its seed, alternating ``geometric`` and
``arithmetic`` kinds. The two instances of one kind form an antithetic pair
(the second mirrors the first's draws inside each range), so a full pass
always covers the low and the high end of the volatility range: the PDE cost
grows with sigma, and an unpaired draw would make the time of a pass depend
on the seed more than on the code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STRIKE = 40.0
HORIZON = 1.0
X0_RANGE = (32.0, 48.0)
SIGMA_RANGE = (0.2, 0.45)
RATE_RANGE = (0.02, 0.08)
# Width of the PDE space domain for both kinds. With 121 nodes the space
# step is 1.0; the PDE's error is first order in it (see oracle.REL_TOL).
PDE_SPAN = 120.0
CROSSCHECK_TOL = 0.02

# Sizes by role: the lattice steps of each command and the PDE grid. They are
# chosen so that one pass over all four instances takes about ten seconds,
# and several whole passes fit in one run. "smoke" is for the self-test.
SIZES = {
    "full": {"report": 512, "refine": 384, "penalize": 256, "crosscheck": 128, "pde_m": 121, "pde_n": 100},
    "smoke": {"report": 64, "refine": 64, "penalize": 32, "crosscheck": 32, "pde_m": 81, "pde_n": 80},
}
PDE_PENALTY_N = 1000.0

# workload -> (command, lattice size role, needs a [pde] section), in pass order
WORKLOADS = {
    "lattice-report": (("solve", "report", False), ("verify", "report", False)),
    "lattice-refine": (("convergence", "refine", False), ("penalize", "penalize", False)),
    "pde-crosscheck": (("pde", "crosscheck", True), ("crosscheck", "crosscheck", True)),
}

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict:
    """BENCHMARK.json: the names and descriptions of the workloads, and the metrics' units."""
    return json.loads(SPEC_PATH.read_text())

# files each command must leave behind
ARTIFACTS = {
    "solve": ("snell.csv", "validation.json"),
    "verify": ("validation.json", "estimates.jsonl"),
    "convergence": ("convergence.csv",),
    "penalize": ("penalization.csv", "bound.json"),
    "pde": ("pde.csv", "pde_report.json", "pde_penalized.csv"),
    "crosscheck": ("crosscheck.json",),
}

N_INSTANCES = 4


@dataclass(frozen=True)
class Instance:
    """One American put: strike 40, discount rate r, generator -r*y."""

    index: int
    kind: str
    x0: float
    sigma: float
    rate: float

    @property
    def sigma0(self) -> float:
        """Arithmetic volatility matched to sigma at the starting point."""
        return self.sigma * self.x0

    @property
    def b0(self) -> float:
        """Arithmetic drift matched to the risk-neutral drift r*x at x0."""
        return self.rate * self.x0

    def pde_domain(self) -> tuple:
        # A geometric state stays positive, so [0, 120] holds it; an
        # arithmetic state is Gaussian, so the domain is centred on x0.
        if self.kind == "geometric":
            return 0.0, PDE_SPAN
        return self.x0 - PDE_SPAN / 2.0, self.x0 + PDE_SPAN / 2.0


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation: an instance, a command and its config text."""

    instance: Instance
    command: str
    config: str

    @property
    def ident(self) -> str:
        return f"i{self.instance.index}-{self.command}"


def _scale(unit: float, bounds: tuple) -> float:
    lo, hi = bounds
    return round(lo + float(unit) * (hi - lo), 6)


def draw_instances(seed: int) -> list:
    """Four instances from ``seed``: kinds alternate, each kind an antithetic pair."""
    rng = np.random.default_rng(seed)
    units = {kind: rng.random(3) for kind in ("geometric", "arithmetic")}
    out = []
    for index in range(N_INSTANCES):
        kind = ("geometric", "arithmetic")[index % 2]
        u = units[kind] if index < 2 else 1.0 - units[kind]
        out.append(
            Instance(
                index=index,
                kind=kind,
                x0=_scale(u[0], X0_RANGE),
                sigma=_scale(u[1], SIGMA_RANGE),
                rate=_scale(u[2], RATE_RANGE),
            )
        )
    return out


def config_text(inst: Instance, command: str, n_lattice: int, sizes: dict, with_pde: bool, seed: int) -> str:
    if inst.kind == "geometric":
        model = f"mu = {inst.rate!r}\nsigma = {inst.sigma!r}\n"
    else:
        model = f"b0 = {inst.b0!r}\nsigma0 = {inst.sigma0!r}\n"
    text = (
        f"[run]\ncommand = {command}\nseed = {seed}\ntol = {CROSSCHECK_TOL!r}\n\n"
        f"[problem]\nkind = {inst.kind}\n{model}x0 = {inst.x0!r}\n"
        f"generator = linear_discount:{inst.rate!r}\n"
        f"terminal = put_payoff:{STRIKE!r}\nobstacle = put_payoff:{STRIKE!r}\n"
        f"kappa = {inst.rate!r}\np = 1.5\n\n"
        f"[lattice]\nn_steps = {n_lattice}\nhorizon = {HORIZON!r}\n\n"
        "[penalize]\nschedule = default\n"
    )
    if with_pde:
        x_min, x_max = inst.pde_domain()
        text += (
            f"\n[pde]\nx_min = {x_min!r}\nx_max = {x_max!r}\n"
            f"m_nodes = {sizes['pde_m']}\nn_steps = {sizes['pde_n']}\n"
            "boundary = dirichlet-obstacle\n"
        )
        if command == "pde":
            text += f"penalty_n = {PDE_PENALTY_N!r}\n"
    return text


def experiments(workload: str, seed: int, size: str = "full") -> list:
    """The pass of ``workload``: every command on every instance, instance-major."""
    sizes = SIZES[size]
    out = []
    for inst in draw_instances(seed):
        for command, role, with_pde in WORKLOADS[workload]:
            text = config_text(inst, command, sizes[role], sizes, with_pde, seed)
            out.append(Experiment(inst, command, text))
    return out
