"""Acceptance gate: the end-to-end guarantees this repository makes.

Each numbered test prints a single [PASS]/[FAIL] verdict line straight to
the terminal (bypassing capture) so a plain ``pytest -v`` run shows the
scoreboard.  Together the criteria pin solver accuracy against frozen
oracle values, the eigenvalue-sum comparison across a corpus of centred
domains and admissible weights, the hyperbolic analogue, the refined flat
bound, mode-profile monotonicity, the pointwise sum bound, invariances,
and the shape sweeps.

One family is deliberately expected to fail: off-centre domains under
non-constant anchored weights.  The comparison ball is anchored at the
weight's distinguished point; once the domain is moved off that anchor
while the weight keeps decaying, the measured gap turns negative and
stays negative under refinement.  That family lives in a strict xfail so
the suite notices if the behaviour ever changes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from wittenlab.checker import build_report, solve_case
from wittenlab.fem import assemble, solve_lowest
from wittenlab.mesh import DomainSpec, generate, refine
from wittenlab.radial import (
    DEFAULT_OPTIONS,
    ShellSpec,
    check_lemma_monotone,
    shoot_first_mode,
)
from wittenlab.spaceform import BallSpec, SpaceForm
from wittenlab.weights import make_weight

FLAT = SpaceForm(curvature=0)
HYPER = SpaceForm(curvature=-1)

# Frozen reference values.  The disk/ball constants are squared Bessel-type
# roots computed by the series solver in tests/oracles.py and cross-checked
# against the finite-difference discretisation; the square spectrum is exact.
MU1_DISK = 3.389957716671889
SQUARE_MODES = np.pi**2 * np.array([1.0, 1.0, 2.0, 4.0, 4.0])
SQUARE_SUM_LHS = 2.0 / np.pi**2          # 1/mu_1 + 1/mu_2 for the unit square
SQUARE_SUM_RHS = 2.0 / (math.pi * MU1_DISK)  # same sum for the area-matched disk

SPLINE_KNOTS = (0.0, 2.0, 1.0, 0.9, 2.0, 0.35, 3.0, 0.0)

# Corpus-scale runs bound the Neumann endpoint residual at 1e-8, as the
# spline shell of the bundled suite does.  The collocation solver meets it
# with a wide margin (its residuals sit near round-off); the looser bound
# keeps the corpus independent of how many digits the endpoint row holds.
CORPUS_OPTIONS = replace(DEFAULT_OPTIONS, residual_tol=1e-8)


@pytest.fixture(scope="module")
def weights3():
    """The three non-constant admissible weights the corpus runs under."""
    return (
        ("linear", make_weight("linear-decreasing", (0.3, 0.4), 20.0)),
        ("exp", make_weight("exponential-decay", (0.0, 1.0, 0.5), 20.0)),
        ("spline", make_weight("tabulated-spline", SPLINE_KNOTS, 3.0)),
    )


@pytest.fixture(scope="module")
def phi_const():
    return make_weight("constant", (0.0,), 20.0)


def flat_corpus_domains():
    """Ten centred flat geometries: planar meshes plus 3d/4d shells."""
    h = 0.12
    sq = 0.5
    return [
        ("ellipse-1.3", DomainSpec(shape="ellipse", aspect=1.3, target_edge_length=h), None),
        ("ellipse-1.8", DomainSpec(shape="ellipse", aspect=1.8, target_edge_length=h), None),
        (
            "square",
            DomainSpec(
                shape="polygon",
                vertices=((-sq, -sq), (sq, -sq), (sq, sq), (-sq, sq)),
                target_edge_length=0.1,
            ),
            None,
        ),
        (
            "diamond",
            DomainSpec(
                shape="polygon",
                vertices=((0.7, 0.0), (0.0, 0.7), (-0.7, 0.0), (0.0, -0.7)),
                target_edge_length=0.1,
            ),
            None,
        ),
        (
            "pert-2",
            DomainSpec(
                shape="perturbed-disk", radius=1.0, perturbation=((2, 0.12),),
                target_edge_length=h,
            ),
            None,
        ),
        (
            "pert-3",
            DomainSpec(
                shape="perturbed-disk", radius=1.0, perturbation=((3, 0.10),),
                target_edge_length=h,
            ),
            None,
        ),
        (
            "pert-5",
            DomainSpec(
                shape="perturbed-disk", radius=0.9, perturbation=((5, 0.08),),
                target_edge_length=h,
            ),
            None,
        ),
        (
            "annulus",
            DomainSpec(
                shape="annulus", inner_radius=0.45, outer_radius=1.0,
                target_edge_length=h,
            ),
            None,
        ),
        ("shell-3d", ShellSpec(0.4, 1.0), 3),
        ("shell-4d", ShellSpec(0.5, 1.1), 4),
    ]


def hyper_corpus_domains():
    """Six hyperbolic geometries; planar ones in Poincare coordinates."""
    h = 0.05
    return [
        (
            "h-ellipse-a",
            DomainSpec(shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.38, target_edge_length=h),
            None,
        ),
        (
            "h-ellipse-b",
            DomainSpec(shape="ellipse", semi_axis_x=0.55, semi_axis_y=0.3, target_edge_length=h),
            None,
        ),
        (
            "h-diamond",
            DomainSpec(
                shape="polygon",
                vertices=((0.35, 0.0), (0.0, 0.35), (-0.35, 0.0), (0.0, -0.35)),
                target_edge_length=h,
            ),
            None,
        ),
        (
            "h-pert-3",
            DomainSpec(
                shape="perturbed-disk", radius=0.4, perturbation=((3, 0.08),),
                target_edge_length=h,
            ),
            None,
        ),
        ("h-ball-3d", ShellSpec(0.0, 0.9), 3),
        ("h-shell-3d", ShellSpec(0.4, 1.2), 3),
    ]


@pytest.fixture(scope="module")
def flat_reports(weights3):
    reports = []
    for label, domain, dim in flat_corpus_domains():
        for wlabel, phi in weights3:
            rep = build_report(solve_case(
                domain, FLAT, phi, dimension=dim, refinements=2, options=CORPUS_OPTIONS
            ))
            reports.append((f"{label}/{wlabel}", rep, phi))
    return reports


@pytest.fixture(scope="module")
def hyper_reports(weights3):
    pair = [w for w in weights3 if w[0] in ("linear", "exp")]
    reports = []
    for label, domain, dim in hyper_corpus_domains():
        for wlabel, phi in pair:
            rep = build_report(solve_case(
                domain, HYPER, phi, dimension=dim, refinements=2, options=CORPUS_OPTIONS
            ))
            reports.append((f"{label}/{wlabel}", rep, phi))
    return reports


def criterion(capsys, number, ok, detail):
    tag = "[PASS]" if ok else "[FAIL]"
    with capsys.disabled():
        print(f"\n{tag} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_disk_first_mode(phi_const, capsys):
    spec = DomainSpec(shape="disk", radius=1.0, target_edge_length=0.16)
    meshes = [generate(spec)]
    meshes.append(refine(meshes[-1]))
    meshes.append(refine(meshes[-1]))
    mus = [oracles.lowest_nonzero(m, FLAT, phi_const).eigenvalues[0] for m in meshes]
    richardson = mus[2] + (mus[2] - mus[1]) / 3.0  # second-order extrapolation
    fem_rel = abs(richardson - MU1_DISK) / MU1_DISK
    shoot_rel = abs(shoot_first_mode(BallSpec(1.0, 2, FLAT), phi_const).mu - MU1_DISK) / MU1_DISK
    converging = abs(mus[2] - MU1_DISK) < abs(mus[0] - MU1_DISK)
    ok = fem_rel <= 1e-3 and shoot_rel <= 1e-6 and converging
    criterion(
        capsys, 1, ok,
        f"unit-disk first mode: extrapolated fem rel err {fem_rel:.2e} (<= 1e-3), "
        f"radial solver rel err {shoot_rel:.2e} (<= 1e-6)",
    )


def test_criterion_02_square_spectrum(phi_const, capsys):
    mesh = generate(
        DomainSpec(
            shape="polygon",
            vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
            target_edge_length=0.04,
        )
    )
    res = oracles.lowest_nonzero(mesh, FLAT, phi_const, count=5)
    rels = np.abs(res.eigenvalues - SQUARE_MODES) / SQUARE_MODES
    ok = bool(np.all(rels <= 1e-2))
    criterion(
        capsys, 2, ok,
        f"unit-square first five nonzero modes within 1% (worst {np.max(rels):.2e})",
    )


def test_criterion_03_radial_solver_cross_checks(weights3, phi_const, capsys):
    wl = dict(weights3)
    combos = [
        (phi_const, 1.0, FLAT, 2, True),
        (wl["linear"], 0.8, FLAT, 2, True),
        (wl["exp"], 1.2, FLAT, 2, True),
        (wl["spline"], 1.0, FLAT, 3, False),
        (wl["linear"], 1.5, FLAT, 3, False),
        (wl["exp"], 0.7, FLAT, 4, False),
        (wl["linear"], 1.0, FLAT, 5, False),
        (phi_const, 1.0, HYPER, 2, True),
        (wl["linear"], 0.9, HYPER, 2, True),
        (wl["exp"], 1.1, HYPER, 3, False),
        (wl["spline"], 0.8, HYPER, 4, False),
        (wl["linear"], 1.3, HYPER, 5, False),
    ]
    worst_fd = 0.0
    worst_fem = 0.0
    for phi, radius, space, n, with_fem in combos:
        mu = shoot_first_mode(BallSpec(radius, n, space), phi).mu
        oracle = oracles.fd_mode_eigenvalues(
            n, space.curvature, phi.value, l=1, r_in=0.0, r_out=radius, count=1
        )[0]
        worst_fd = max(worst_fd, abs(mu - oracle) / oracle)
        if with_fem:
            model_r = radius if space.curvature == 0 else oracles.poincare_radius(radius)
            mesh = refine(
                generate(
                    DomainSpec(
                        shape="disk",
                        radius=model_r,
                        target_edge_length=0.1 * model_r,
                    )
                )
            )
            mu_fem = oracles.lowest_nonzero(mesh, space, phi).eigenvalues[0]
            worst_fem = max(worst_fem, abs(mu_fem - mu) / mu)
    ok = worst_fd <= 1e-5 and worst_fem <= 5e-3
    criterion(
        capsys, 3, ok,
        f"{len(combos)} weight/radius/curvature/dimension combos: radial solver vs "
        f"grid oracle worst rel {worst_fd:.2e} (<= 1e-5), vs 2d fem worst rel "
        f"{worst_fem:.2e} (<= 5e-3)",
    )


def test_criterion_04_main_inequality_centred_corpus(flat_reports, weights3, phi_const, capsys):
    failures = [label for label, rep, _phi in flat_reports if not rep["passed"]]
    min_slack = min(rep["gap"] + rep["tol_budget"] for _l, rep, _p in flat_reports)

    ball_ok = True
    for _wlabel, phi in weights3:
        rep = build_report(solve_case(
            ShellSpec(0.0, 1.0), FLAT, phi, dimension=3, refinements=2, options=CORPUS_OPTIONS
        ))
        ball_ok = ball_ok and abs(rep["gap"]) <= rep["tol_budget"]

    translated_ok = True
    for offset in (0.3, 0.5):
        dom = DomainSpec(
            shape="translated-disk", radius=0.8, center=(offset, 0.0),
            target_edge_length=0.1,
        )
        rep = build_report(solve_case(dom, FLAT, phi_const, refinements=2))
        translated_ok = translated_ok and rep["passed"]

    ok = not failures and ball_ok and translated_ok
    detail = (
        f"sum comparison holds on {len(flat_reports)} centred case/weight pairs "
        f"(min slack {min_slack:.2e}); matched ball is an equality within budget; "
        f"translated disks remain exact under the constant weight"
    )
    if failures:
        detail += f"; violations: {failures}"
    criterion(capsys, 4, ok, detail)


def test_criterion_04_offcentre_violation_is_resolved(weights3, capsys):
    """The known failing family is a genuine spectral deficit, not noise."""
    phi = dict(weights3)["exp"]
    dom = DomainSpec(
        shape="translated-disk", radius=0.8, center=(0.5, 0.0), target_edge_length=0.1
    )
    rep = build_report(solve_case(dom, FLAT, phi, refinements=2))
    ok = rep["gap"] < -10.0 * rep["tol_budget"]
    criterion(
        capsys, "4-note", ok,
        f"off-centre disk under a decaying weight violates the comparison by "
        f"{rep['gap']:.2e}, more than 10x the numerical budget {rep['tol_budget']:.2e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "off-centre domains under non-constant anchored weights genuinely "
        "violate the centred sum comparison: the matched ball sits at the "
        "weight's anchor while the domain does not, and the measured gap "
        "stays negative under refinement (about -1e-2 at offset 0.5 for a "
        "radius-0.8 disk).  Strict xfail pins the detection."
    ),
)
def test_criterion_04_translated_disks_nonconstant_weights(weights3, capsys):
    ok = True
    worst = 0.0
    for offset in (0.3, 0.5):
        dom = DomainSpec(
            shape="translated-disk", radius=0.8, center=(offset, 0.0),
            target_edge_length=0.1,
        )
        for _wlabel, phi in weights3:
            rep = build_report(solve_case(dom, FLAT, phi, refinements=2))
            ok = ok and rep["passed"]
            worst = min(worst, rep["gap"])
    with capsys.disabled():
        print(
            f"\n[XFAIL] criterion 4 (off-centre x non-constant): worst gap {worst:.2e}"
        )
    assert ok, f"off-centre family violates the comparison (worst gap {worst:.2e})"


def test_criterion_05_hyperbolic_corpus(hyper_reports, capsys):
    failures = [label for label, rep, _phi in hyper_reports if not rep["passed"]]
    ball_ok = all(
        abs(rep["gap"]) <= rep["tol_budget"]
        for label, rep, _phi in hyper_reports
        if label.startswith("h-ball")
    )
    min_slack = min(rep["gap"] + rep["tol_budget"] for _l, rep, _p in hyper_reports)
    ok = not failures and ball_ok
    detail = (
        f"hyperbolic analogue holds on {len(hyper_reports)} case/weight pairs "
        f"(min slack {min_slack:.2e}); geodesic ball is an equality within budget"
    )
    if failures:
        detail += f"; violations: {failures}"
    criterion(capsys, 5, ok, detail)


def test_criterion_06_refined_flat_bound(weights3, capsys):
    wl = dict(weights3)
    h = 0.12
    sq = 0.5
    cases = [
        ("ellipse-1.3", DomainSpec(shape="ellipse", aspect=1.3, target_edge_length=h), wl["linear"], None),
        ("ellipse-1.8", DomainSpec(shape="ellipse", aspect=1.8, target_edge_length=h), wl["exp"], None),
        (
            "square",
            DomainSpec(
                shape="polygon",
                vertices=((-sq, -sq), (sq, -sq), (sq, sq), (-sq, sq)),
                target_edge_length=0.1,
            ),
            wl["linear"],
            None,
        ),
        (
            "pert-2",
            DomainSpec(
                shape="perturbed-disk", radius=1.0, perturbation=((2, 0.12),),
                target_edge_length=h,
            ),
            wl["exp"],
            None,
        ),
        (
            "pert-5",
            DomainSpec(
                shape="perturbed-disk", radius=0.9, perturbation=((5, 0.08),),
                target_edge_length=h,
            ),
            wl["spline"],
            None,
        ),
        ("shell-3d", ShellSpec(0.4, 1.0), wl["linear"], 3),
    ]
    failures = []
    for label, domain, phi, dim in cases:
        rep = build_report(solve_case(
            domain, FLAT, phi, dimension=dim, refinements=2, options=CORPUS_OPTIONS
        ), sharper=True)
        sharp = rep["sharper"]
        if not (sharp["nonnegative_ok"] and sharp["passed"] and rep["passed"]):
            failures.append(label)

    ball = build_report(solve_case(
        ShellSpec(0.0, 1.0), FLAT, wl["linear"], dimension=3, refinements=2,
        options=CORPUS_OPTIONS,
    ), sharper=True)
    ball_ok = ball["sharper"]["rhs"] <= 1e-9 and abs(ball["sharper"]["gap"]) <= max(
        ball["tol_budget"], 1e-6
    )
    ok = not failures and ball_ok
    detail = (
        f"refined comparison holds on {len(cases)} centred cases with a "
        f"nonnegative correction term; on the ball the correction vanishes "
        f"({ball['sharper']['rhs']:.1e})"
    )
    if failures:
        detail += f"; violations: {failures}"
    criterion(capsys, 6, ok, detail)


def test_criterion_07_profile_monotone_on_corpus(flat_reports, hyper_reports, capsys):
    failures = []
    worst = -np.inf
    for label, rep, phi in list(flat_reports) + list(hyper_reports):
        space = FLAT if rep["curvature"] == 0 else HYPER
        mode = shoot_first_mode(BallSpec(rep["matched_radius"], rep["dimension"], space), phi)
        mono = check_lemma_monotone(mode)
        worst = max(worst, mono["worst_increase"])
        if not mono["passed"]:
            failures.append(label)
    ok = not failures
    detail = (
        f"normalised mode profile is non-increasing on every matched-ball solve "
        f"({len(flat_reports) + len(hyper_reports)} solves, worst increase {worst:.2e})"
    )
    if failures:
        detail += f"; violations: {failures}"
    criterion(capsys, 7, ok, detail)


def test_criterion_08_pointwise_bound_random(capsys):
    # for ascending mu and a unit xi, with a_i = 1 - xi_i^2 (which sum to
    # n-1): sum_i a_i / mu_i <= sum_{i<n} 1 / mu_i, to round-off
    rng = np.random.default_rng(20260817)
    per_dim = 20_000
    total = 0
    violations = 0
    min_slack = np.inf
    for n in range(2, 7):
        mus = np.sort(rng.uniform(0.05, 40.0, size=(per_dim, n)), axis=1)
        xis = rng.normal(size=(per_dim, n))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        rhs = np.sum(1.0 / mus[:, :-1], axis=1)
        slack = rhs - np.sum((1.0 - xis * xis) / mus, axis=1)
        total += len(slack)
        violations += int(np.sum(slack < -1e-12 * np.maximum(1.0, np.abs(rhs))))
        min_slack = min(min_slack, float(slack.min()))
    ok = violations == 0 and total == 5 * per_dim
    criterion(
        capsys, 8, ok,
        f"pointwise sum bound holds on {total} random draws across dimensions "
        f"2..6 ({violations} violations, min slack {min_slack:.2e})",
    )


def test_criterion_09_invariances(phi_const, capsys):
    base = make_weight("linear-decreasing", (0.3, 0.4), 20.0)
    shifted = make_weight("linear-decreasing", (1.8, 0.4), 20.0)

    mu_a = shoot_first_mode(BallSpec(1.0, 3, FLAT), base).mu
    mu_b = shoot_first_mode(BallSpec(1.0, 3, FLAT), shifted).mu
    shift_rel = abs(mu_a - mu_b) / mu_a

    mesh = refine(generate(DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15)))
    e_a = oracles.lowest_nonzero(mesh, FLAT, base).eigenvalues[0]
    e_b = oracles.lowest_nonzero(mesh, FLAT, shifted).eigenvalues[0]
    fem_shift_rel = abs(e_a - e_b) / e_a

    scale_rel = 0.0
    for n in (2, 3):
        mu_unit = shoot_first_mode(BallSpec(1.0, n, FLAT), phi_const).mu
        for radius in (0.5, 1.0, 2.0):
            mu_r = shoot_first_mode(BallSpec(radius, n, FLAT), phi_const).mu
            scale_rel = max(scale_rel, abs(mu_r - mu_unit / radius**2) / mu_r)

    w_exp = make_weight("exponential-decay", (0.0, 1.0, 0.5), 20.0)
    structure_rel = 0.0
    for spec, space in (
        (DomainSpec(shape="disk", radius=1.0, target_edge_length=0.12), FLAT),
        (DomainSpec(shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.38, target_edge_length=0.05), HYPER),
    ):
        forms = assemble(refine(generate(spec)), space, w_exp)
        stiff = forms.stiffness
        ones = np.ones(stiff.shape[0])
        row_rel = np.max(np.abs(stiff @ ones)) / np.max(stiff.diagonal())
        res = solve_lowest(forms, count=1)
        zero_rel = abs(res.zero_mode_value) / res.eigenvalues[0]
        structure_rel = max(structure_rel, row_rel, zero_rel)

    ok = shift_rel <= 1e-10 and fem_shift_rel <= 1e-10 and scale_rel <= 1e-8 and structure_rel <= 1e-12
    criterion(
        capsys, 9, ok,
        f"weight-shift invariance {max(shift_rel, fem_shift_rel):.1e} (<= 1e-10), "
        f"unweighted scaling law {scale_rel:.1e} (<= 1e-8), stiffness kernel / "
        f"zero-mode {structure_rel:.1e} (<= 1e-12)",
    )


def test_criterion_10_square_sum_and_sweeps(phi_const, capsys):
    square = DomainSpec(
        shape="polygon",
        vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        target_edge_length=0.08,
    )
    sol = solve_case(square, FLAT, phi_const, conjecture=True, refinements=2)
    rep = build_report(sol)
    conj = rep["conjecture"]
    lhs_rel = abs(conj["lhs"] - SQUARE_SUM_LHS) / SQUARE_SUM_LHS
    rhs_rel = abs(conj["rhs"] - SQUARE_SUM_RHS) / SQUARE_SUM_RHS
    square_ok = lhs_rel <= 5e-3 and rhs_rel <= 5e-3 and conj["verdict"] == "conjecture-consistent"

    margins = []
    candidates = []
    for aspect in np.linspace(1.0, 2.0, 11):
        dom = DomainSpec(shape="ellipse", aspect=float(aspect), target_edge_length=0.12)
        sol = solve_case(dom, FLAT, phi_const, conjecture=True, refinements=2)
        r = build_report(sol)
        margins.append(r["conjecture"]["gap"])
        if r["conjecture"]["verdict"] != "conjecture-consistent":
            candidates.append(f"aspect={aspect:g}")
    round_is_minimal = int(np.argmin(margins)) == 0

    slope_ok = True
    for slope in np.linspace(0.0, 1.0, 6):
        phi = make_weight("linear-decreasing", (0.0, float(slope)), 20.0)
        dom = DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.12)
        sol = solve_case(dom, FLAT, phi, conjecture=True, refinements=2)
        r = build_report(sol)
        if r["conjecture"]["verdict"] != "conjecture-consistent":
            slope_ok = False
            candidates.append(f"slope={slope:g}")

    ok = square_ok and not candidates and round_is_minimal and slope_ok
    criterion(
        capsys, 10, ok,
        f"square eigenvalue sums match closed forms (lhs rel {lhs_rel:.1e}, rhs rel "
        f"{rhs_rel:.1e}, <= 5e-3); aspect sweep 1..2 and slope sweep 0..1 stay "
        f"consistent with the full-sum extension and the margin is smallest at the "
        f"round case" + (f"; candidates: {candidates}" if candidates else ""),
    )
