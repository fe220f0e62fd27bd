"""Ready-made game constructors: the two benchmark instances and generic families.

The congestion benchmark routes one unit of traffic over four paths through
an eight-road network with per-road capacities; the rock-paper-scissors
benchmark couples a cyclic matrix game with a single convex quadratic
constraint.  Both are also reachable from the CLI through the builtin names
``paper-congestion`` and ``paper-rps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    AffineConstraint,
    CongestionPotential,
    ConfigurationError,
    GameSpec,
    MatrixFitness,
    PotentialFitness,
    PrimalState,
    QuadraticConstraint,
    QuadraticPotential,
)

NSD_TOL = 1e-10


class Road(NamedTuple):
    name: str
    weight: float
    capacity: float


@dataclass(frozen=True, eq=False)
class RoadNetwork:
    """Roads with linear congestion costs plus the road subsets usable as paths.

    ``roads`` fixes the constraint order of the built game: one capacity
    constraint per road, in listing order.  Every road must appear in at
    least one strategy, and weights and capacities must be positive.
    """

    roads: tuple
    strategies: tuple

    def __post_init__(self):
        roads = tuple(Road(str(r[0]), float(r[1]), float(r[2])) for r in self.roads)
        strategies = tuple(tuple(str(rid) for rid in strat) for strat in self.strategies)
        if len(roads) == 0 or len(strategies) < 2:
            raise ConfigurationError("need at least one road and two strategies")
        names = [r.name for r in roads]
        if len(set(names)) != len(names):
            raise ConfigurationError("road names must be unique")
        known = set(names)
        used = set()
        for strat in strategies:
            if not strat:
                raise ConfigurationError("every strategy must use at least one road")
            for rid in strat:
                if rid not in known:
                    raise ConfigurationError(f"strategy references unknown road {rid!r}")
            used.update(strat)
        unused = known - used
        if unused:
            raise ConfigurationError(f"roads never used by any strategy: {sorted(unused)}")
        for road in roads:
            if road.weight <= 0:
                raise ConfigurationError(f"road {road.name!r} has nonpositive weight")
            if road.capacity <= 0:
                raise ConfigurationError(f"road {road.name!r} has nonpositive capacity")
        object.__setattr__(self, "roads", roads)
        object.__setattr__(self, "strategies", strategies)

    def incidence(self) -> np.ndarray:
        """0/1 matrix with entry ``[e, i] = 1`` when strategy ``i`` uses road ``e``."""
        inc = np.zeros((len(self.roads), len(self.strategies)))
        for e, road in enumerate(self.roads):
            for i, strat in enumerate(self.strategies):
                if road.name in strat:
                    inc[e, i] = 1.0
        return inc


def build_congestion(
    network: RoadNetwork, primal_mass: float, dual_mass: float, name: str = "congestion"
) -> GameSpec:
    """Congestion game with potential ``-0.5 * sum_e w_e load_e^2``.

    Fitness is the potential's gradient (negative path cost) and each road
    contributes one affine capacity constraint ``load_e(x) <= capacity_e``,
    in the network's road order.
    """
    inc = network.incidence()
    weights = np.array([r.weight for r in network.roads])
    potential = CongestionPotential(inc, weights)
    constraints = tuple(
        AffineConstraint(inc[e], network.roads[e].capacity) for e in range(len(network.roads))
    )
    return GameSpec(
        n=len(network.strategies),
        primal_mass=primal_mass,
        dual_mass=dual_mass,
        fitness=PotentialFitness(potential),
        constraints=constraints,
        potential=potential,
        name=name,
    )


def build_rps(
    primal_mass: float = 1.0,
    dual_mass: float = 4.0,
    cap: float = 0.1,
    name: str = "rps",
    start: Optional[PrimalState] = None,
) -> GameSpec:
    """Cyclic three-strategy matrix game with the constraint ``x_1^2 + x_2^2 <= cap``.

    The payoff matrix rewards beating the previous strategy twice as much as
    losing costs, which shifts the unconstrained equilibrium to the
    barycenter; the quadratic cap rules that point out.  No potential exists
    (the matrix has a rotational part), so downstream checks use the
    stable-game route instead.  ``start`` becomes the game's fixed start.
    """
    if not cap > 0:
        raise ConfigurationError("cap must be positive")
    matrix = np.array([[0.0, -1.0, 2.0], [2.0, 0.0, -1.0], [-1.0, 2.0, 0.0]])
    constraint = QuadraticConstraint(
        Q=np.diag([1.0, 1.0, 0.0]), a=np.zeros(3), c=cap
    )
    return GameSpec(
        n=3,
        primal_mass=primal_mass,
        dual_mass=dual_mass,
        fitness=MatrixFitness(matrix),
        constraints=(constraint,),
        potential=None,
        name=name,
        start=start,
    )


def build_quadratic_potential(
    H: np.ndarray,
    c: np.ndarray,
    constraints: Sequence = (),
    primal_mass: float = 1.0,
    dual_mass: float = 1.0,
    name: str = "quadratic",
) -> GameSpec:
    """Game with potential ``0.5 x.Hx + c.x`` and fitness ``Hx + c``.

    ``H`` must be symmetric negative semidefinite (largest eigenvalue at
    most ``NSD_TOL``) so the potential is concave.
    """
    H = np.asarray(H, dtype=float)
    potential = QuadraticPotential(H, c)
    eigs = np.linalg.eigvalsh(potential.quad)
    if eigs.max() > NSD_TOL:
        raise ConfigurationError(
            f"potential matrix has positive eigenvalue {eigs.max():.3g}; "
            "a concave potential is required"
        )
    return GameSpec(
        n=potential.quad.shape[0],
        primal_mass=primal_mass,
        dual_mass=dual_mass,
        fitness=PotentialFitness(potential),
        constraints=tuple(constraints),
        potential=potential,
        name=name,
    )


def paper_congestion(dual_mass: float = 122.0) -> GameSpec:
    """The benchmark eight-road network with four paths and unit traffic.

    Road order is chosen so the capacity constraints come out as
    single-variable caps first, then the pair caps, then the triple:
    ``x_1 <= 0.4``, ``x_2 <= 0.4``, ``x_3 <= 0.4``, ``x_4 <= 0.4``,
    ``x_1 + x_2 <= 0.6``, ``x_2 + x_3 <= 0.6``, ``x_3 + x_4 <= 0.6``,
    ``x_2 + x_3 + x_4 <= 0.9``.
    """
    network = RoadNetwork(
        roads=(
            ("r1", 15.0, 0.4),
            ("r3", 11.0, 0.4),
            ("r5", 13.0, 0.4),
            ("r6", 5.0, 0.4),
            ("r2", 16.0, 0.6),
            ("r7", 17.0, 0.6),
            ("r4", 13.0, 0.6),
            ("r8", 18.0, 0.9),
        ),
        strategies=(
            ("r1", "r2"),
            ("r8", "r7", "r3", "r2"),
            ("r8", "r7", "r5", "r4"),
            ("r8", "r6", "r4"),
        ),
    )
    return build_congestion(
        network, primal_mass=1.0, dual_mass=dual_mass, name="paper-congestion"
    )


def paper_rps() -> GameSpec:
    """The benchmark constrained rock-paper-scissors instance.

    Its runs start at the barycenter, carried as the game's ``start``.
    """
    barycenter = PrimalState(np.full(3, 1.0 / 3.0), 1.0)
    return build_rps(primal_mass=1.0, dual_mass=4.0, cap=0.1, name="paper-rps", start=barycenter)


BUILTIN_GAMES = {
    "paper-congestion": paper_congestion,
    "paper-rps": paper_rps,
}


def builtin_game(name: str) -> GameSpec:
    """Construct a builtin instance by name; unknown names list the options."""
    try:
        factory = BUILTIN_GAMES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GAMES))
        raise ConfigurationError(f"unknown builtin game {name!r} (known: {known})") from None
    return factory()
