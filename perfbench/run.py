"""wittenlab benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fem-refine --seed 1 --seconds 30 --trace 0

The seed generates the workload's config (``workloads.py``); the program
sees only that config.  Every execution is a fresh process
(``child.py``) that imports ``wittenlab.cli``, validates the config and
calls ``cli.run`` or ``cli.sweep``.  Every ``reports.jsonl`` is checked
against the expected verdicts and the oracle anchors (``oracles.py``).

``--trace 0`` repeats the execution until ``--seconds`` is used up and
reports the end-to-end metrics as medians over the repetitions, every
time scaled to a reference machine speed (see ``measure_end_to_end``).
``--trace 1`` runs the workload three times: untraced, traced (spans from
``tracer.py``) and untraced with the other worker count (1 <-> 2), and
traces the workload's level probe, if it has one, on its own.  It
reports the per-layer metrics, the layer-share table and the determinism
probes.  The last line of standard output is one JSON object.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
RUN_DEADLINE_S = 170  # a whole run, set-up and every execution included
MIN_REPS = 2
MAX_REPS = 40

# A fixed pass time of child.py's reference loop, of the order of what it
# takes on a 2-vCPU Xeon VM; times are reported as if the CPU ran the pass
# in this time (see measure_end_to_end).
REF_LOOP_S = 2.0e-4
END_TO_END_UNITS = {
    "batch_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "anchor_digits": "digits",
}

# functions reported as <name>.calls and <name>.self_s
TIMED_FUNCTIONS = (
    "radial.shoot_general_mode",
    "radial.symmetric_spectrum",
    "checker.find_trial_center",
    "spaceform.weighted_annulus_volume",
    "checker.match_ball_radius",
    "mesh.generate",
    "mesh.refine",
    "fem.assemble",
    "fem.solve_lowest",
    "checker.weighted_disk_intersection",
    "weights.property_I_certify",
)
CHECK_FUNCTIONS = (
    "checker.check_theorem_main",
    "checker.check_theorem_sharper",
    "checker.check_conjectures",
)
LAYERS = ("spaceform", "weights", "radial", "mesh", "fem", "checker", "cli")
# mean self time per call at one refinement level, in the workload's level
# probe (the h = 0.1 ellipse), with the figures the ROADMAP re-anchor
# recorded for it (seconds)
LEVELS = {
    "level.refine.L1_s": ("mesh.refine", 1, 0.060),
    "level.refine.L2_s": ("mesh.refine", 2, 0.234),
    "level.refine.L3_s": ("mesh.refine", 3, 0.612),
    "level.assemble.L2_s": ("fem.assemble", 2, 0.079),
    "level.assemble.L3_s": ("fem.assemble", 3, 0.317),
    "level.solve_lowest.L2_s": ("fem.solve_lowest", 2, 0.188),
    "level.solve_lowest.L3_s": ("fem.solve_lowest", 3, 1.096),
    "level.clip.L2_s": ("checker.weighted_disk_intersection", 2, 1.66),
}


_STARTED = time.monotonic()


class BenchError(RuntimeError):
    """The benchmark could not run; nothing is reported."""


# ---------------------------------------------------------------------------
# executing one fresh process


def run_child(workload, rep_dir: Path, config_path: Path, jobs: int, trace: bool) -> dict:
    rep_dir.mkdir(parents=True)
    req = {
        "config": str(config_path),
        "out": str(rep_dir / "out"),
        "command": workload.command,
        "jobs": jobs,
        "result": str(rep_dir / "result.json"),
        "trace_dir": str(rep_dir) if trace else None,
    }
    req_path = rep_dir / "request.json"
    req_path.write_text(json.dumps(req))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(req_path)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    timeout = max(1.0, _STARTED + RUN_DEADLINE_S - time.monotonic())
    try:
        output, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # timeout or termination: stop the whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(
                f"{workload.name}: run exceeded {RUN_DEADLINE_S} s"
            ) from None
        raise
    if proc.returncode != 0:
        tail = output.decode(errors="replace")[-2000:]
        raise BenchError(f"{workload.name}: execution failed:\n{tail}")
    result = json.loads((rep_dir / "result.json").read_text())
    result["reports"] = (rep_dir / "out" / "reports.jsonl").read_text().splitlines()
    return result


# ---------------------------------------------------------------------------
# checking reports.jsonl


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _eigenvalues(report: dict) -> list[float]:
    values = list(report["eigenvalues"])
    if report.get("conjecture"):
        values += report["conjecture"]["eigenvalues"]
    return values


def check_reports(workload, lines: list[str]) -> dict:
    """Verdicts, internal consistency and anchors of one execution.

    A record with ``status == "error"`` is a failed operation: it is counted
    and reported, but it is not a wrong output.  Everything else that
    disagrees with the expectations is a wrong output (``problems``).
    """
    records = {json.loads(line)["id"]: json.loads(line) for line in lines}
    problems: list[str] = []
    error_messages: list[str] = []
    mismatches = 0
    anchor_errs = {}
    for cid, expected in workload.expected.items():
        rec = records.get(cid)
        if rec is None:
            problems.append(f"{cid}: no record")
            continue
        if rec["status"] == "error":
            error_messages.append(f"{cid}: {rec.get('error')}")
            continue
        failed = tuple(rec.get("failed_checks", ()))
        if rec["status"] != ("fail" if expected else "pass") or failed != expected:
            mismatches += 1
            problems.append(f"{cid}: failed checks {list(failed)}, expected {list(expected)}")
        rep = rec["report"]
        n = rep["dimension"]
        lhs = math.fsum(1.0 / v for v in rep["eigenvalues"][: n - 1])
        rhs = (n - 1) / rep["mu1_ball"]
        if (
            _rel(rep["lhs"], lhs) > 1e-12
            or _rel(rep["rhs"], rhs) > 1e-12
            or abs(rep["gap"] - (lhs - rhs)) > 1e-12 * max(lhs, rhs)
            or rep["passed"] != (rep["gap"] >= -rep["tol_budget"])
        ):
            problems.append(f"{cid}: lhs/rhs/gap/passed are inconsistent")
        anchor = workload.anchors.get(cid)
        if anchor is not None:
            values = []
            if "eigenvalues" in anchor.fields:
                values += _eigenvalues(rep)
            if "first" in anchor.fields:
                values.append(rep["eigenvalues"][0])
            if "mu1_ball" in anchor.fields:
                values.append(rep["mu1_ball"])
            err = max(_rel(v, anchor.oracle) for v in values)
            anchor_errs[cid] = err
            if err > anchor.bound:
                problems.append(f"{cid}: anchor error {err:.3g} > {anchor.bound:g}")
    unexpected = set(records) - set(workload.expected)
    if unexpected:
        problems.append(f"unexpected records {sorted(unexpected)}")
    return {
        "attempted": len(workload.expected),
        "errors": len(error_messages),
        "error_messages": error_messages,
        "mismatches": mismatches,
        "anchors": anchor_errs,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# spans


def load_spans(rep_dir: Path) -> list[dict]:
    """Spans of every traced process, each with its self time.

    Self time is the span's duration minus what its child spans (and the
    tracer's bookkeeping for them) cover.  ``in_batch`` marks spans inside
    the ``cli.run``/``cli.sweep`` call, which includes every worker span.
    """
    out = []
    for path in sorted(glob.glob(str(rep_dir / "spans-*.json"))):
        data = json.loads(Path(path).read_text())
        spans = data["spans"]
        child_cover = [0.0] * len(spans)
        for name, start, end, parent, attrs, ovh in spans:
            if parent >= 0:
                child_cover[parent] += (end - start) + ovh
        in_batch = [False] * len(spans)
        case_of = [None] * len(spans)
        for i, (name, start, end, parent, attrs, ovh) in enumerate(spans):
            up = in_batch[parent] if parent >= 0 else False
            in_batch[i] = (not data["main"]) or up or name in ("cli.run", "cli.sweep")
            case_of[i] = attrs["id"] if name == "cli.case" else (
                case_of[parent] if parent >= 0 else None
            )
            out.append(
                {
                    "name": name,
                    "dur": end - start,
                    "self": (end - start) - child_cover[i],
                    "attrs": attrs or {},
                    "in_batch": in_batch[i],
                    "case": case_of[i],
                }
            )
    return out


def layer_metrics(workload, spans: list[dict]) -> dict:
    def pick(name):
        return [s for s in spans if s["name"] == name]

    m = {}
    for name in TIMED_FUNCTIONS:
        m[f"{name}.calls"] = len(pick(name))
        m[f"{name}.self_s"] = sum(s["self"] for s in pick(name))
    first = pick("radial.shoot_first_mode")
    m["radial.shoot_first_mode.calls"] = len(first)
    m["radial.ball_solve_reuse"] = (
        len({s["attrs"]["key"] for s in first}) / len(first) if first else 0.0
    )
    m["radial.ball_rayleigh_integrals.self_s"] = sum(
        s["self"] for s in pick("radial.ball_rayleigh_integrals")
    )
    refines = pick("mesh.refine")
    m["mesh.refine.triangles_out"] = sum(s["attrs"]["triangles_out"] for s in refines)
    m["mesh.refine_reuse"] = (
        len({s["attrs"]["key"] for s in refines}) / len(refines) if refines else 0.0
    )
    m["fem.assemble.dofs"] = sum(s["attrs"]["dofs"] for s in pick("fem.assemble"))
    m["fem.solve_lowest.dofs"] = sum(s["attrs"]["dofs"] for s in pick("fem.solve_lowest"))
    m["checker.weighted_disk_intersection.triangles"] = sum(
        s["attrs"]["triangles"] for s in pick("checker.weighted_disk_intersection")
    )
    m["checker.check.self_s"] = sum(s["self"] for n in CHECK_FUNCTIONS for s in pick(n))
    m["cli.validate.self_s"] = sum(
        s["self"] for s in spans if s["name"].startswith("cli.validate_")
    )
    batch = [s for s in spans if s["in_batch"]]
    m["cli.batch.self_s"] = sum(
        s["self"] for s in batch
        if s["name"].startswith("cli.") and not s["name"].startswith("cli.validate_")
    )
    total = sum(s["self"] for s in batch)
    for layer in LAYERS:
        own = sum(s["self"] for s in batch if s["name"].split(".")[0] == layer)
        m[f"share.{layer}"] = own / total if total > 0 else 0.0
    return m


def level_metrics(probe, spans: list[dict]) -> dict:
    """Mean self time per call at each refinement level of the probe case."""
    m = {}
    for metric, (name, level, _ref) in LEVELS.items():
        at_level = [
            s["self"] for s in spans
            if s["name"] == name and s["case"] == probe.level_case
            and s["attrs"].get("level") == level
        ]
        m[metric] = statistics.mean(at_level) if at_level else 0.0
    return m


# ---------------------------------------------------------------------------
# determinism probes


def _by_id(lines: list[str]) -> dict[str, str]:
    return {json.loads(line)["id"]: line for line in lines}


def rerun_drift(a: list[str], b: list[str]) -> float:
    """Largest relative change of any reported eigenvalue between two runs."""
    ra, rb = _by_id(a), _by_id(b)
    drift = 0.0
    for cid in ra.keys() & rb.keys():
        x, y = json.loads(ra[cid]), json.loads(rb[cid])
        if x["status"] == "error" or y["status"] == "error":
            continue
        vx = _eigenvalues(x["report"]) + [x["report"]["mu1_ball"]]
        vy = _eigenvalues(y["report"]) + [y["report"]["mu1_ball"]]
        drift = max([drift] + [_rel(p, q) for p, q in zip(vx, vy)])
    return drift


def nonidentical(a: list[str], b: list[str]) -> int:
    ra, rb = _by_id(a), _by_id(b)
    return sum(ra.get(cid) != rb.get(cid) for cid in ra.keys() | rb.keys())


# ---------------------------------------------------------------------------
# environment


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas_threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
    except OSError:
        pass
    lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "wittenlab").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_threads_in_effect": blas_threads,
        "workload": workload,
        "seed": seed,
        "src_wittenlab_lines": lines,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_end_to_end(workload, run_dir: Path, config: Path, seconds: float):
    reps, checks = [], []
    start = time.perf_counter()
    while True:
        rep = run_child(workload, run_dir / f"rep-{len(reps)}", config, workload.jobs, False)
        reps.append(rep)
        checks.append(check_reports(workload, rep["reports"]))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MAX_REPS or (len(reps) >= MIN_REPS and elapsed + per_rep > seconds):
            break
    # an anchor case that errored in every execution leaves no value; the
    # run is then reported as incorrect
    anchor_err = max((err for c in checks for err in c["anchors"].values()), default=1.0)
    if not any(c["anchors"] for c in checks):
        checks[0]["problems"].append("no anchor value in any execution")
    # Each vCPU of the machine runs at one of two speeds, ~1.6x apart, and
    # switches between them every few seconds to minutes, so a run's raw
    # times depend on how long it spent at each.  Every reported time is
    # therefore scaled to the reference speed by the reference loop's pass
    # time sampled while it ran (child.SpeedSampler).  The raw times are
    # printed beside them.
    for r in reps:
        r["setup_wall_s"], r["batch_wall_s"], r["cpu_raw_s"] = (
            r["setup_s"], r["batch_s"], r["cpu_s"]
        )
        r["setup_s"] *= REF_LOOP_S / r["setup_loop_s"]
        r["batch_s"] *= REF_LOOP_S / r["batch_loop_s"]
        r["cpu_s"] *= REF_LOOP_S / r["batch_loop_s"]
    metrics = {
        name: statistics.median(r[name] for r in reps)
        for name in ("batch_s", "setup_s", "cpu_s", "peak_rss_mb")
    }
    metrics["anchor_digits"] = -math.log10(max(anchor_err, 1e-17))
    attempted = sum(c["attempted"] for c in checks)
    errors = sum(c["errors"] for c in checks)
    mismatches = sum(c["mismatches"] for c in checks)

    print(f"end-to-end, {workload.name}: {len(reps)} fresh-process executions "
          f"in {time.perf_counter() - start:.1f} s")
    print(f"  {'metric':<18}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}")
    units = dict(END_TO_END_UNITS, batch_wall_s="s", setup_wall_s="s", cpu_raw_s="s",
                 batch_loop_s="s")
    for name in ("batch_s", "setup_s", "cpu_s", "peak_rss_mb",
                 "batch_wall_s", "setup_wall_s", "cpu_raw_s", "batch_loop_s"):
        q1, q2, q3 = _quartiles([r[name] for r in reps])
        print(f"  {name:<18}{units[name]:<8}{q2:>12.4g}{q1:>12.4g}{q3:>12.4g}")
    print(f"  (batch_s, setup_s and cpu_s are scaled to a reference loop time of "
          f"{REF_LOOP_S:g} s; the *_wall_s and cpu_raw_s lines are unscaled)")
    for name in ("batch_wall_s", "batch_s"):
        print(f"  {name} of each execution: " + " ".join(f"{r[name]:.3f}" for r in reps))
    print(f"  {'error_frac':<18}{'ratio':<8}{errors / attempted:>12.4g}")
    print(f"  {'verdict_mismatch':<18}{'count':<8}{mismatches:>12d}")
    print(f"  {'anchor_rel_err':<18}{'ratio':<8}{anchor_err:>12.3e}")
    print(f"  {'anchor_digits':<18}{'digits':<8}{metrics['anchor_digits']:>12.4f}")
    for cid, anchor in workload.anchors.items():
        err = max((c["anchors"][cid] for c in checks if cid in c["anchors"]), default=math.nan)
        print(f"    anchor {cid}: rel err {err:.3e} (gate {anchor.bound:g})")
    return metrics, checks


def measure_layers(workload, run_dir: Path, config: Path):
    other_jobs = 1 if workload.jobs == 2 else 2
    plain = run_child(workload, run_dir / "untraced", config, workload.jobs, False)
    traced = run_child(workload, run_dir / "traced", config, workload.jobs, True)
    other = run_child(workload, run_dir / f"jobs{other_jobs}", config, other_jobs, False)
    checks = [check_reports(workload, r["reports"]) for r in (plain, traced, other)]

    spans = load_spans(run_dir / "traced")
    m = layer_metrics(workload, spans)
    probe = workload.level_probe
    if probe is not None:
        probe_config = run_dir / "level-probe.json"
        probe_config.write_text(json.dumps(probe.config, indent=2))
        probe_run = run_child(probe, run_dir / "levels", probe_config, probe.jobs, True)
        checks.append(check_reports(probe, probe_run["reports"]))
        m.update(level_metrics(probe, load_spans(run_dir / "levels")))
    else:
        m.update({metric: 0.0 for metric in LEVELS})
    serial, pooled = (plain, other) if workload.jobs == 1 else (other, plain)
    m["cli.import_s"] = plain["import_s"]
    m["cli.parallel_efficiency"] = serial["batch_s"] / (2.0 * pooled["batch_s"])
    m["trace.batch_s"] = traced["batch_s"]
    m["trace.overhead_s"] = traced["batch_s"] - plain["batch_s"]
    m["fem.solve_lowest.rerun_rel_drift"] = rerun_drift(plain["reports"], traced["reports"])
    m["cli.nonidentical_records"] = nonidentical(
        plain["reports"], traced["reports"]
    ) + nonidentical(plain["reports"], other["reports"])

    print(f"per-layer, {workload.name}: untraced {plain['batch_s']:.3f} s, "
          f"traced {traced['batch_s']:.3f} s (jobs={workload.jobs}), "
          f"jobs={other_jobs} {other['batch_s']:.3f} s")
    print("  layer share of the traced batch (self time):")
    for layer in LAYERS:
        print(f"    {layer:<10}{m[f'share.{layer}']:>8.3f}")
    print("  hot functions (calls, self s):")
    for name in TIMED_FUNCTIONS:
        print(f"    {name:<38}{m[f'{name}.calls']:>6d}{m[f'{name}.self_s']:>10.3f}")
    print("  case wall times, traced (s):")
    for span in spans:
        if span["name"] == "cli.case":
            print(f"    {span['attrs']['id']:<48}{span['dur']:>8.3f}")
    if probe is not None:
        print(f"  per-level self time per call in {probe.level_case}, traced on its own (s), "
              "beside the ROADMAP re-anchor figures:")
        for metric, (_name, _level, ref) in LEVELS.items():
            if m[metric] > 0:
                print(f"    {metric:<26}{m[metric]:>8.3f}   ROADMAP {ref:.3f}")
    print(f"  determinism: rerun_rel_drift {m['fem.solve_lowest.rerun_rel_drift']:.3g}, "
          f"nonidentical_records {m['cli.nonidentical_records']}")
    return m, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that child processes and scratch
    # files are cleaned up on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "wittenlab" / "cli.py").is_file():
        print(f"perfbench: no wittenlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.generate(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config = run_dir / "config.json"
        config.write_text(json.dumps(workload.config, indent=2))
        print("environment: " + json.dumps(environment(args.workload, args.seed)))
        if args.trace:
            metrics, checks = measure_layers(workload, run_dir, config)
            units = {}
        else:
            metrics, checks = measure_end_to_end(workload, run_dir, config, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for check in checks:
        for message in check["error_messages"]:
            print(f"FAILED OPERATION {message}")
        for problem in check["problems"]:
            print(f"CHECK FAILED {problem}")
    failed = sum(c["errors"] for c in checks)
    correct = not any(c["problems"] for c in checks)
    result = {
        "correct": correct,
        "attempted": sum(c["attempted"] for c in checks),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, _layer_unit(name))}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", "_records", ".dofs", ".triangles", ".triangles_out")):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
