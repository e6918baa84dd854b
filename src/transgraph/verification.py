"""Round-trip verification: reduction graph vs. realized geometry.

The forward direction of both reductions is executed literally: realize
the objects of a simple line arrangement, then build the candidate graph
from the description the realization extracted and compare it with the
transmission graph of the realized objects.  An empty diff certifies the
construction on that input.  The sector side conditions are checked once,
inside ``realize_sectors``; the report lists the checks that certified
the realization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .arrangement import Description, LineArrangement, is_simple
from .geometry import line_from_slope_intercept
from .graphs import DiffReport, LabelledDigraph, graph_diff
from .realization import realize_sectors, realize_segments
from .reductions import reduce_sectors, reduce_segments


class SamplingExhausted(Exception):
    pass


@dataclass(frozen=True)
class RandomSpec:
    n: int
    seed: int
    coord_bound: int = 12

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.coord_bound < 1:
            raise ValueError("need a positive coordinate bound")
        # The 2*bound + 1 integer slopes are always available.
        if self.n > 2 * self.coord_bound + 1:
            count = _slope_count(self.coord_bound)
            if self.n > count:
                raise ValueError(
                    f"n = {self.n} exceeds the {count} distinct slopes "
                    f"with coordinate bound {self.coord_bound}"
                )
        # With more than two lines per integer intercept b, three of them
        # meet at (0, b), so no draw is simple.
        intercepts = 2 * self.coord_bound + 1
        if self.n > 2 * intercepts:
            raise ValueError(
                f"n = {self.n} exceeds {2 * intercepts}: with coordinate bound "
                f"{self.coord_bound}, three lines always share one of the "
                f"{intercepts} intercepts"
            )


def _slope_count(bound: int) -> int:
    """The number of distinct slopes p/q with |p| <= bound and
    1 <= q <= bound: 0 and, each with both signs, the reduced fractions
    of the positive ones, 4 * (phi(1) + ... + phi(bound)) - 1."""
    phi = list(range(bound + 1))
    for k in range(2, bound + 1):
        if phi[k] == k:  # k is prime
            for j in range(k, bound + 1, k):
                phi[j] -= phi[j] // k
    return 4 * sum(phi[1:]) - 1


MAX_SAMPLING_ATTEMPTS = 1000


def random_simple_arrangement(spec: RandomSpec) -> LineArrangement:
    """Rejection-sample a simple arrangement with small integer data.

    Deterministic for a fixed spec: slopes p/q and integer intercepts are
    drawn from a seeded generator until the arrangement is simple.
    """
    rng = random.Random((spec.seed, spec.n, spec.coord_bound).__repr__())
    bound = spec.coord_bound
    for _ in range(MAX_SAMPLING_ATTEMPTS):
        slopes: set[Fraction] = set()
        while len(slopes) < spec.n:
            p = rng.randint(-bound, bound)
            q = rng.randint(1, bound)
            slopes.add(Fraction(p, q))
        # Distinct slopes in ascending order, which ``LineArrangement``
        # checks itself.
        arr = LineArrangement(
            tuple(line_from_slope_intercept(s, rng.randint(-bound, bound)) for s in sorted(slopes))
        )
        if is_simple(arr):
            return arr
    raise SamplingExhausted(f"no simple arrangement found for {spec}")


@dataclass
class RoundTripReport:
    description: Description
    graph_from_reduction: LabelledDigraph
    graph_from_geometry: LabelledDigraph
    diff: DiffReport
    checker_results: list[tuple[str, bool, str]] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.diff.empty and all(ok for _, ok, _ in self.checker_results)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {self.diff.summary()}"]
        for name, ok, detail in self.checker_results:
            lines.append(f"  {name}: {'pass' if ok else 'fail'}{' ' + detail if detail else ''}")
        return "\n".join(lines)


def round_trip_segments(arr: LineArrangement) -> RoundTripReport:
    realized = realize_segments(arr)
    reduced = reduce_segments(realized.description)
    return RoundTripReport(
        description=realized.description,
        graph_from_reduction=reduced,
        graph_from_geometry=realized.graph,
        diff=graph_diff(reduced, realized.graph),
        parameters={"tilt": (realized.tilt.c, realized.tilt.s)},
    )


def round_trip_sectors(arr: LineArrangement) -> RoundTripReport:
    realized = realize_sectors(arr)
    reduced = reduce_sectors(realized.description)
    return RoundTripReport(
        description=realized.description,
        graph_from_reduction=reduced,
        graph_from_geometry=realized.graph,
        diff=graph_diff(reduced, realized.graph),
        checker_results=list(realized.checks),
        parameters={
            "tau": realized.tau,
            "delta": realized.delta,
            "epsilon": realized.epsilon,
            "alpha_half": (realized.alpha_half.c, realized.alpha_half.s),
        },
    )
