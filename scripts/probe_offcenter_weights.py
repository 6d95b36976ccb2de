#!/usr/bin/env python3
"""Map the gap of the eigenvalue-sum comparison for off-centre disks.

The comparison domain is the metric ball around the weight's anchor
point, volume-matched in the weighted measure.  For disks centred at
the anchor the inequality holds with margin to spare, and it is exact
when the disk IS the matched ball.  This script slides the disk away
from the anchor under several admissible weights and prints the gap,
the numerical tolerance budget, and the verdict for each combination.

With a constant weight the problem is translation invariant and the
offset never matters.  With a genuinely decreasing weight the gap turns
negative once the offset is comparable to the radius, and stays
negative under mesh refinement: the off-centre configuration falls
outside what the centred comparison can control.  Exit code 2 flags
that at least one combination failed, same convention as the CLI.
"""

import argparse
import sys

from wittenlab.checker import build_report, solve_case
from wittenlab.mesh import DomainSpec
from wittenlab.spaceform import SpaceForm
from wittenlab.weights import make_weight, property_I_certify

WEIGHTS = (
    ("constant", ("constant", (0.0,))),
    ("linear a=0.4", ("linear-decreasing", (0.0, 0.4))),
    ("exp lam=0.5", ("exponential-decay", (0.0, 1.0, 0.5))),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=float, default=0.8, help="disk radius")
    parser.add_argument(
        "--offsets",
        type=float,
        nargs="+",
        default=[0.0, 0.25, 0.5],
        help="distances between disk centre and weight anchor",
    )
    parser.add_argument("--mesh-size", type=float, default=0.1)
    parser.add_argument("--refinements", type=int, default=2)
    args = parser.parse_args()

    flat = SpaceForm(curvature=0)
    header = f"{'offset':>8} {'weight':>14} {'gap':>14} {'budget':>12} verdict"
    print(header)
    print("-" * len(header))
    any_failed = False
    for offset in args.offsets:
        if offset == 0.0:
            domain = DomainSpec(
                shape="disk", radius=args.radius, target_edge_length=args.mesh_size
            )
        else:
            domain = DomainSpec(
                shape="translated-disk",
                radius=args.radius,
                center=(offset, 0.0),
                target_edge_length=args.mesh_size,
            )
        for label, (family, params) in WEIGHTS:
            phi = make_weight(family, params, domain_cap=20.0)
            assert property_I_certify(phi).passed
            report = build_report(
                solve_case(domain, flat, phi, refinements=args.refinements)
            )
            verdict = "pass" if report.passed else "FAIL"
            any_failed = any_failed or not report.passed
            print(
                f"{offset:8.3f} {label:>14} {report.gap:14.6e} "
                f"{report.tol_budget:12.3e} {verdict}"
            )
    if any_failed:
        print("\nat least one combination violates the centred comparison")
    return 2 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
