"""Seeded workload configs for the benchmark, with their expected outcomes.

Every workload has a fixed structure: the same number of cases, the same
shapes, dimensions, curvatures, weight families, mesh sizes, refinement
levels and anchor members on every seed.  The seed only draws continuous
parameters (radii, offsets, weight parameters, sweep values) from ranges
where the expected verdict is known.  Where a parameter sets the size of
the mesh, such as an ellipse's aspect, it is fixed or drawn from a range
in which the generated mesh keeps its triangle count, so the amount of
work changes little from one seed to the next while the program never
sees the same inputs twice.

``generate(name, seed)`` returns a :class:`Workload`: the config the
program receives, how to run it, and what ``reports.jsonl`` must say.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracles import MU1_DISK, SQUARE_MU1, flat_ball_mu1

# acceptance-gate bounds on the anchors (relative error)
BALL_BOUND = 1e-6
DISK_BOUND = 1e-3
SQUARE_BOUND = 1e-2


@dataclass
class Anchor:
    """Reported eigenvalues of one case that must match an oracle value.

    ``fields`` are ``"eigenvalues"`` (every domain eigenvalue, including
    the conjecture's), ``"mu1_ball"`` or ``"first"`` (the lowest domain
    eigenvalue only).
    """

    oracle: float
    bound: float
    fields: tuple[str, ...] = ("eigenvalues",)


@dataclass
class Workload:
    name: str
    command: str  # "run" or "sweep"
    jobs: int
    config: dict
    # case id -> the checks expected to fail, in cli's order; () is a pass
    expected: dict[str, tuple[str, ...]] = field(default_factory=dict)
    anchors: dict[str, Anchor] = field(default_factory=dict)
    # the case whose per-level layer times are reported
    level_case: str | None = None
    # a one-case workload run only by the traced run, for the per-level
    # times of the ROADMAP's h = 0.1 ellipse
    level_probe: Workload | None = None


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _linear(rng, lo=0.3, hi=0.5):
    return {"family": "linear-decreasing", "params": [_u(rng, 0.0, 0.5), _u(rng, lo, hi)]}


def _exponential(rng):
    return {
        "family": "exponential-decay",
        "params": [0.0, _u(rng, 0.8, 1.2), _u(rng, 0.4, 0.6)],
    }


def _spline(rng):
    # Scaling the knot values of a convex decreasing natural spline by a
    # positive factor keeps it convex and decreasing.
    s = _u(rng, 0.9, 1.1)
    knots = [(0.0, 2.0), (1.0, 0.9), (2.0, 0.35), (3.0, 0.0)]
    params = [v for t, p in knots for v in (t, round(s * p, 6))]
    return {"family": "tabulated-spline", "params": params, "domain_cap": 3.0}


CONSTANT = {"family": "constant", "params": [0.0]}


def _shell(rng, inner, outer):
    return {
        "shape": "shell",
        "inner_radius": 0.0 if inner is None else _u(rng, *inner),
        "outer_radius": outer if isinstance(outer, float) else _u(rng, *outer),
    }


def radial_spectrum(rng: random.Random) -> Workload:
    """Balls and shells through the shooting solver only."""
    # (space, n, inner-radius range or None for a ball, outer radius, weight,
    # checks).  `sharper` runs on the flat shell; on the anchor ball it would
    # double the case's cost and add no layer that the shell does not reach.
    base = ["main", "conjecture", "lemma23"]
    slots = [
        ("euclidean", 2, None, (0.9, 1.1), CONSTANT, base),
        ("euclidean", 4, (0.35, 0.45), (1.05, 1.15), _exponential(rng),
         ["main", "sharper", "conjecture", "lemma23"]),
        ("hyperbolic", 3, (0.25, 0.35), (0.95, 1.05), _linear(rng, 0.2, 0.4), base),
        # The shooting work of this shell grows by ~45% once its outer
        # radius passes a threshold between 1.0 and 1.025, so the radius
        # stays below 1.0 and the work changes little from seed to seed.
        ("hyperbolic", 5, (0.25, 0.35), (0.95, 0.995), _spline(rng), base),
    ]
    cases, anchors = [], {}
    for i, (space, n, inner, outer, weight, checks) in enumerate(slots):
        cid = f"r{i:02d}-{space[:3]}-n{n}-{weight['family']}"
        domain = _shell(rng, inner, outer)
        cases.append(
            {
                "id": cid,
                "space": space,
                "dimension": n,
                "domain": domain,
                "weight": weight,
                "checks": list(checks),
            }
        )
        if weight is CONSTANT and domain["inner_radius"] == 0.0:
            mu = flat_ball_mu1(n, domain["outer_radius"])
            anchors[cid] = Anchor(mu, BALL_BOUND, ("eigenvalues", "mu1_ball"))
    return Workload(
        "radial-spectrum",
        "run",
        1,
        {"schema": 1, "cases": cases},
        expected={c["id"]: () for c in cases},
        anchors=anchors,
    )


def _ellipse_probe(name: str, rng: random.Random, checks: list[str], levels: int) -> Workload:
    """The aspect-1.4 ellipse at h = 0.1 that the ROADMAP's per-level
    figures were taken on, as a one-case workload."""
    cid = f"{name}-level-probe"
    case = {
        "id": cid,
        "space": "euclidean",
        "domain": {"shape": "ellipse", "aspect": 1.4},
        "weight": _exponential(rng),
        "checks": checks,
        "mesh_size": 0.1,
        "refinement_levels": levels,
    }
    return Workload(
        cid, "run", 1, {"schema": 1, "cases": [case]}, expected={cid: ()}, level_case=cid
    )


def fem_refine(rng: random.Random) -> Workload:
    """Plane domains through mesh generation, refinement and P1 FEM."""
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    # (id, space, domain, weight, mesh_size, refinement_levels)
    slots = [
        ("f00-disk-anchor", "euclidean", {"shape": "disk", "radius": 1.0},
         CONSTANT, 0.1, 2),
        ("f01-square-anchor", "euclidean", {"shape": "polygon", "vertices": square},
         CONSTANT, 0.1, 2),
        ("f02-ellipse-L3", "euclidean", {"shape": "ellipse", "aspect": 1.4},
         _exponential(rng), 0.15, 3),
        ("f03-perturbed", "euclidean",
         {"shape": "perturbed-disk", "radius": 1.0,
          "perturbation": [[3, _u(rng, 0.05, 0.15)]]}, _linear(rng), 0.15, 2),
        ("f04-annulus", "euclidean",
         {"shape": "annulus", "inner_radius": _u(rng, 0.33, 0.37), "outer_radius": 1.0},
         _exponential(rng), 0.15, 2),
        ("f05-hyper-ellipse", "hyperbolic",
         {"shape": "ellipse", "semi_axis_x": 0.5, "semi_axis_y": 0.35},
         _linear(rng), 0.07, 2),
    ]
    cases = [
        {
            "id": cid,
            "space": space,
            "domain": domain,
            "weight": weight,
            "checks": ["main", "conjecture"],
            "mesh_size": h,
            "refinement_levels": levels,
        }
        for cid, space, domain, weight, h, levels in slots
    ]
    return Workload(
        "fem-refine",
        "run",
        1,
        {"schema": 1, "cases": cases},
        expected={c["id"]: () for c in cases},
        anchors={
            "f00-disk-anchor": Anchor(MU1_DISK, DISK_BOUND),
            "f01-square-anchor": Anchor(SQUARE_MU1, SQUARE_BOUND),
        },
        level_probe=_ellipse_probe("fem-refine", rng, ["main", "conjecture"], 3),
    )


def sharper_center(rng: random.Random) -> Workload:
    """Flat cases through the sharper bound, its clip and the centre search."""
    checks = ["main", "sharper", "center", "lemma23"]

    def offset_disk():
        return {"shape": "translated-disk", "radius": 0.8,
                "center": [_u(rng, 0.25, 0.5), 0.0]}

    # (id, domain, weight, mesh_size, expected failed checks).  Off the anchor
    # a decreasing weight breaks `main` (README, "The off-centre caveat");
    # under a constant weight `main` holds but the sharper bound, whose
    # annulus radii are anchored at the origin, does not.
    slots = [
        ("c00-offset-constant", offset_disk(), CONSTANT, 0.15, ("sharper",)),
        ("c01-offset-linear", offset_disk(), _linear(rng, 0.4, 0.8), 0.2,
         ("main", "sharper")),
        ("c02-offset-exponential", offset_disk(), _exponential(rng), 0.2,
         ("main", "sharper")),
        ("c03-ellipse-exponential", {"shape": "ellipse", "aspect": 1.4},
         _exponential(rng), 0.15, ()),
    ]
    cases = [
        {
            "id": cid,
            "space": "euclidean",
            "domain": domain,
            "weight": weight,
            "checks": checks,
            "mesh_size": h,
            "refinement_levels": 2,
        }
        for cid, domain, weight, h, _failed in slots
    ]
    return Workload(
        "sharper-center",
        "run",
        1,
        {"schema": 1, "cases": cases},
        expected={cid: failed for cid, _d, _w, _h, failed in slots},
        # a translated disk under a constant weight is still a disk
        anchors={"c00-offset-constant": Anchor(MU1_DISK / 0.8**2, DISK_BOUND, ("first",))},
        level_probe=_ellipse_probe("sharper-center", rng, checks, 2),
    )


def sweep_jobs2(rng: random.Random) -> Workload:
    """An aspect x slope family through ``cli.sweep`` with two workers."""
    aspects = [1.0, _u(rng, 1.27, 1.3), _u(rng, 1.67, 1.7)]
    slopes = [0.0, _u(rng, 0.2, 0.5)]
    config = {
        "schema": 1,
        "base_case": {
            "id": "sweep",
            "space": "euclidean",
            "domain": {"shape": "ellipse", "aspect": 1.0},
            "weight": {"family": "linear-decreasing", "params": [0.0, 0.0]},
            "checks": ["main", "conjecture"],
            "mesh_size": 0.1,
            "refinement_levels": 2,
        },
        "sweep": {
            "parameters": [
                {"path": "domain.aspect", "values": aspects},
                {"path": "weight.params.1", "values": slopes},
            ]
        },
    }
    # ids as cli.sweep forms them: base id, then path=value per axis
    ids = [
        f"sweep--domain_aspect={a:.6g}--weight_params_1={s:.6g}"
        for a in aspects
        for s in slopes
    ]
    return Workload(
        "sweep-jobs2",
        "sweep",
        2,
        config,
        expected={cid: () for cid in ids},
        anchors={ids[0]: Anchor(MU1_DISK, DISK_BOUND)},
    )


_BUILDERS = {
    "radial-spectrum": radial_spectrum,
    "fem-refine": fem_refine,
    "sharper-center": sharper_center,
    "sweep-jobs2": sweep_jobs2,
}
NAMES = tuple(_BUILDERS)


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` drawn from ``seed``; same seed, same config."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
