"""Front-end tests: config validation pointers, artifacts, exit codes.

Configs are built as dicts and dumped to temp files; the entry point is
exercised in-process through ``cli.main`` so exit codes and stderr are
observable without subprocesses.  One test drives ``python -m`` for real
from a temporary directory, and one imports the front end in a fresh
interpreter; both give the child the repository's absolute ``src`` on
``PYTHONPATH``, so they pass from any checkout location whether or not the
package is installed.  The BLAS pin is read back through each loaded
OpenBLAS's own thread-count getter.
"""

import ctypes
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from wittenlab import checker, cli
from wittenlab.mesh import DomainSpec, generate, save
from wittenlab.radial import check_lemma_monotone

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """``os.environ`` with the repository's absolute ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def disk_case(**overrides):
    case = {
        "id": "disk-equality",
        "space": "euclidean",
        "domain": {"shape": "disk", "radius": 1.0},
        "weight": {"family": "constant", "params": [0.0]},
        "checks": ["main"],
        "mesh_size": 0.15,
    }
    case.update(overrides)
    return case


def shell_case(**overrides):
    case = {
        "id": "ball3",
        "space": "euclidean",
        "dimension": 3,
        "domain": {"shape": "shell", "inner_radius": 0.0, "outer_radius": 1.0},
        "weight": {"family": "linear-decreasing", "params": [0.3, 0.4]},
        "checks": ["main"],
    }
    case.update(overrides)
    return case


# the fields each domain shape takes besides ``shape``, the ones it needs,
# and a valid value for every field
DOMAIN_TAKES = {
    "disk": ("radius",),
    "translated-disk": ("radius", "center"),
    "ellipse": ("aspect", "semi_axis_x", "semi_axis_y", "center"),
    "perturbed-disk": ("radius", "perturbation", "center"),
    "annulus": ("inner_radius", "outer_radius"),
    "polygon": ("vertices",),
    "shell": ("inner_radius", "outer_radius"),
    "mesh-file": ("path",),
}
DOMAIN_NEEDS = {
    "disk": ("radius",),
    "translated-disk": ("radius",),
    "ellipse": ("aspect",),
    "perturbed-disk": ("radius", "perturbation"),
    "annulus": ("inner_radius", "outer_radius"),
    "polygon": ("vertices",),
    "shell": ("outer_radius",),
    "mesh-file": ("path",),
}
DOMAIN_VALUES = {
    "radius": 1.0,
    "center": [0.5, 0.0],
    "aspect": 1.2,
    "semi_axis_x": 1.0,
    "semi_axis_y": 0.8,
    "inner_radius": 0.3,
    "outer_radius": 1.0,
    "vertices": [[0, 0], [1, 0], [0, 1]],
    "perturbation": [[2, 0.1]],
    "path": "domain.wslmesh",
}
FOREIGN_FIELDS = [
    (shape, key) for shape in DOMAIN_TAKES for key in DOMAIN_VALUES
    if key not in DOMAIN_TAKES[shape]
]


def domain_with(shape: str, **extra) -> dict:
    return {"shape": shape, **{k: DOMAIN_VALUES[k] for k in DOMAIN_NEEDS[shape]}, **extra}


class TestValidation:
    def test_unknown_case_key_is_pointered(self, tmp_path, capsys):
        cfg = {"schema": 1, "cases": [disk_case(extra=1)]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cases[0].extra: unknown key" in capsys.readouterr().err

    def test_unknown_weight_key_is_pointered(self, tmp_path, capsys):
        case = disk_case()
        case["weight"]["familly"] = "constant"
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cases[0].weight.familly: unknown key" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = {"schema": 2, "cases": [disk_case()]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config.schema" in capsys.readouterr().err

    def test_empty_cases_rejected(self, tmp_path, capsys):
        cfg = {"schema": 1, "cases": []}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config.cases" in capsys.readouterr().err

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        cfg = {"schema": 1, "cases": [disk_case(), disk_case()]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "duplicate id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cid", ["sub/dir,x", "a\\b", "a,b", 'a"b', "a\nb", "a\x7fb"],
        ids=["slash-comma", "backslash", "comma", "quote", "newline", "delete"],
    )
    def test_id_that_breaks_output_files_refused(self, tmp_path, capsys, cid):
        # the id names plots/<id>_profile.csv and starts a summary.csv row
        out = tmp_path / "o"
        cfg = {"schema": 1, "cases": [disk_case(), shell_case(id=cid)]}
        assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cases[1].id: {cid!r} holds")
        assert not out.exists()

    def test_non_finite_mesh_file_refused_at_validation(self, tmp_path, capsys):
        # a NaN node gives a NaN area, which no area bound refuses
        mesh_path = tmp_path / "nan.mesh"
        save(generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.3)),
             str(mesh_path))
        lines = mesh_path.read_text().splitlines()
        lines[2] = "nan 0.0"
        mesh_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        case = disk_case(domain={"shape": "mesh-file", "path": str(mesh_path)})
        cfg = {"schema": 1, "cases": [case]}
        assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: cases[0].domain.path: node with a non-finite coordinate"
        )
        assert not out.exists()

    def test_uncertifiable_weight_names_grid_point(self, tmp_path, capsys):
        case = disk_case()
        case["weight"] = {
            "family": "tabulated-spline",
            "params": [0.0, 0.0, 1.0, 0.5, 2.0, 1.5, 3.0, 3.5],
            "domain_cap": 3.0,
        }
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "admissibility" in err
        assert "at t =" in err

    def test_spline_concave_between_grid_points_rejected(self, tmp_path, capsys):
        # phi'' = -41.9 at t = 0.50004, between the points of any uniform grid
        knots = [0.0, 0.25, 0.5, *(0.5 + 1e-5 * i for i in range(1, 8)), 0.75, 1.0]
        values = [(1.0 - t) ** 2 + (1e-9 if i == 6 else 0.0) for i, t in enumerate(knots)]
        case = disk_case()
        case["weight"] = {
            "family": "tabulated-spline",
            "params": [p for pair in zip(knots, values) for p in pair],
            "domain_cap": 1.0,
        }
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(
            "config error: cases[0].weight: tabulated-spline fails the admissibility"
        )
        assert "convexity at t = 0.50002" in err

    def test_bad_domain_shape(self, tmp_path, capsys):
        case = disk_case()
        case["domain"] = {"shape": "pentagon"}
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cases[0].domain.shape" in capsys.readouterr().err

    def test_shell_requires_dimension(self, tmp_path, capsys):
        case = shell_case()
        del case["dimension"]
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cases[0].dimension" in capsys.readouterr().err

    def test_sharper_rejected_on_hyperbolic(self, tmp_path, capsys):
        case = disk_case(space="hyperbolic", checks=["main", "sharper"])
        case["domain"]["radius"] = 0.5  # stay inside the model disk
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "sharper" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("mesh_size", 0.1), ("refinement_levels", 3)])
    def test_mesh_keys_refused_on_a_shell(self, tmp_path, capsys, key, value):
        # a shell is solved radially, so neither key would be read
        cfg = {"schema": 1, "cases": [shell_case(**{key: value})]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"cases[0].{key}: radially symmetric domains are not meshed" in (
            capsys.readouterr().err
        )
        cfg = {
            "schema": 1,
            "base_case": shell_case(**{key: value}),
            "sweep": {"parameters": [{"path": "domain.outer_radius", "values": [1.0, 1.1]}]},
        }
        code = cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(tmp_path / "s")])
        assert code == 1
        assert f"base_case.{key}: radially symmetric domains are not meshed" in (
            capsys.readouterr().err
        )

    def test_center_rejected_on_shell(self, tmp_path, capsys):
        cfg = {"schema": 1, "cases": [shell_case(checks=["main", "center"])]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "center" in capsys.readouterr().err

    def test_unknown_check_name(self, tmp_path, capsys):
        cfg = {"schema": 1, "cases": [disk_case(checks=["main", "bogus"])]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cases[0].checks[1]" in capsys.readouterr().err

    def test_validation_happens_before_any_case_runs(self, tmp_path, capsys):
        # first case is fine, second is broken; nothing may be written
        out = tmp_path / "out"
        cfg = {"schema": 1, "cases": [disk_case(), disk_case(id="x", mesh_size=-1)]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        assert "cases[1].mesh_size" in capsys.readouterr().err
        assert not (out / "reports.jsonl").exists()

    @pytest.mark.parametrize("key", ["refinement_levels", "dimension"])
    def test_boolean_integer_field_rejected(self, tmp_path, capsys, key):
        cfg = {"schema": 1, "cases": [shell_case(**{key: True})]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"cases[0].{key}: wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode", [2.7, "3", True, None, [1]], ids=["fraction", "string", "bool", "null", "list"]
    )
    def test_perturbation_mode_must_be_integral(self, tmp_path, capsys, mode):
        case = disk_case()
        case["domain"] = {"shape": "perturbed-disk", "radius": 1.0,
                          "perturbation": [[2, 0.1], [mode, 0.05]]}
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cases[0].domain.perturbation[1]: mode must be an integer" in (
            capsys.readouterr().err
        )

    def test_integral_float_perturbation_mode_accepted(self):
        # an integral float is a mode, as the README documents
        case = disk_case()
        case["domain"] = {"shape": "perturbed-disk", "radius": 1.0,
                          "perturbation": [[3.0, 0.1]]}
        domain = cli.validate_case(case, "case", "x")["domain"].spec
        assert domain.perturbation == ((3, 0.1),)
        assert type(domain.perturbation[0][0]) is int

    def test_folding_ring_mesh_refused_at_validation(self, tmp_path, capsys):
        # mode 8 at amplitude 0.4: the generated ring mesh folds, so the case
        # is refused before any case runs instead of ending as an error record
        out = tmp_path / "o"
        case = disk_case()
        case["domain"] = {"shape": "perturbed-disk", "radius": 1.0,
                          "perturbation": [[8, 0.4]]}
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "config error: cases[0].domain: triangle with signed area"
        )
        assert not out.exists()

    def test_validated_domain_is_the_generated_mesh(self):
        case = disk_case(mesh_size=0.15)
        domain = cli.validate_case(case, "case", "x")["domain"]
        spec = DomainSpec(shape="disk", radius=1.0, target_edge_length=0.15)
        want = generate(spec)
        assert domain.spec == spec
        assert np.array_equal(domain.nodes, want.nodes)
        assert np.array_equal(domain.triangles, want.triangles)

    @pytest.mark.parametrize("shape", [s for s in DOMAIN_TAKES if s != "mesh-file"])
    def test_needed_domain_fields_validate(self, shape):
        case = shell_case() if shape == "shell" else disk_case()
        case["domain"] = domain_with(shape)
        cli.validate_run_config({"schema": 1, "cases": [case]})

    @pytest.mark.parametrize(
        "shape,key", FOREIGN_FIELDS, ids=[f"{s}-{k}" for s, k in FOREIGN_FIELDS]
    )
    def test_domain_field_the_shape_does_not_take(self, shape, key):
        case = shell_case() if shape == "shell" else disk_case()
        case["domain"] = domain_with(shape, **{key: DOMAIN_VALUES[key]})
        with pytest.raises(cli.ConfigError) as info:
            cli.validate_run_config({"schema": 1, "cases": [case]})
        assert str(info.value) == f"cases[0].domain.{key}: not a {shape} field"

    def test_center_on_disk_refused_even_at_origin(self, tmp_path, capsys):
        case = disk_case()
        case["domain"]["center"] = [0, 0]
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cases[0].domain.center: not a disk field" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err


OFFSET_DISK = {"shape": "translated-disk", "radius": 0.8, "center": [0.5, 0.0]}
EXP_WEIGHT = {"family": "exponential-decay", "params": [0.0, 1.0, 0.5]}

# per check, a disk case in which that check alone fails, and the front-end
# function patched to make it fail (None: it fails on its own)
ONE_FAILING_CHECK = {
    # the off-centre disk under the exponential weight beats its matched ball
    "main": ({"domain": OFFSET_DISK, "weight": EXP_WEIGHT,
              "checks": ["main", "lemma23", "center"]}, None),
    # under the constant weight it ties the ball, so it falls short of the
    # positive annulus correction that the sharper bound asks for
    "sharper": ({"domain": OFFSET_DISK, "checks": list(cli.CHECK_NAMES)}, None),
    # under the exponential weight its open-question margin stays negative
    "conjecture": ({"domain": OFFSET_DISK, "weight": EXP_WEIGHT,
                    "checks": ["conjecture", "lemma23", "center"]}, None),
    "lemma23": ({"checks": list(cli.CHECK_NAMES)}, "check_lemma_monotone"),
    "center": ({"checks": list(cli.CHECK_NAMES)}, "find_trial_center"),
}


def check_blocks(record: dict) -> dict:
    """Each check's block of a record, ``None`` for a check not run."""
    report = record["report"]
    return {
        "main": report,
        "sharper": report.get("sharper"),
        "conjecture": report.get("conjecture"),
        "lemma23": record.get("lemma23"),
        "center": record.get("center"),
    }


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    cfg = {
        "schema": 1,
        "cases": [
            shell_case(checks=["main", "sharper", "conjecture", "lemma23"]),
            disk_case(checks=["main", "lemma23", "center"], mesh_size=0.15),
        ],
    }
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    return code, out


class TestRun:
    def test_exit_zero_when_all_pass(self, run_dir):
        code, _out = run_dir
        assert code == 0

    def test_reports_are_sorted_jsonl(self, run_dir):
        _code, out = run_dir
        lines = (out / "reports.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        ids = [r["id"] for r in records]
        assert ids == sorted(ids)
        by_id = {r["id"]: r for r in records}
        assert by_id["ball3"]["report"]["sharper"]["passed"]
        assert by_id["ball3"]["report"]["conjecture"]["verdict"] == "conjecture-consistent"
        assert by_id["ball3"]["lemma23"]["passed"]
        assert by_id["disk-equality"]["center"]["converged"]
        # every check block carries its verdict, and the sharper one its budget
        report = by_id["ball3"]["report"]
        assert report["conjecture"]["passed"] is True
        assert by_id["disk-equality"]["center"]["passed"] is True
        n = report["dimension"]
        budget = (n - 1) * report["tol_budget"] / report["lhs"] ** 2
        assert report["sharper"]["tol_budget"] == pytest.approx(budget, rel=1e-15)

    def test_check_blocks_are_the_results(self, run_dir):
        # the center and lemma23 blocks are the check results as written
        _code, out = run_dir
        lines = (out / "reports.jsonl").read_text().splitlines()
        record = {r["id"]: r for r in map(json.loads, lines)}["disk-equality"]
        raw = disk_case(checks=["main", "lemma23", "center"], mesh_size=0.15)
        case = cli.validate_case(raw, "case", "x")
        sol = checker.solve_case(
            case["domain"], case["space"], case["weight"], case["dimension"],
            refinements=case["refinements"], options=case["options"],
        )
        results = {
            "center": checker.find_trial_center(sol.base_mesh, case["weight"], sol.ball_mode),
            "lemma23": check_lemma_monotone(sol.ball_mode),
        }
        for key, result in results.items():
            assert record[key] == json.loads(json.dumps(result)), key

    def test_summary_table_shape(self, run_dir):
        _code, out = run_dir
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "case_id,n,kappa,weight,R,lhs,rhs,gap,sharper_gap,verdict"
        assert len(lines) == 3
        ball = lines[1].split(",")
        assert ball[0] == "ball3"
        assert ball[1] == "3"
        assert lines[1].endswith("pass")

    def test_each_tolerance_key_runs_a_shell(self, tmp_path):
        tolerances = {"shooting_rtol": 1e-11, "shooting_atol": 1e-13, "residual_tol": 1e-8}
        cases = [
            shell_case(id=key, tolerances={key: value}) for key, value in tolerances.items()
        ]
        out = tmp_path / "out"
        code = cli.main(
            ["run", write_config(tmp_path, {"schema": 1, "cases": cases}), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "reports.jsonl").read_text().splitlines()
        reports = {r["id"]: r["report"] for r in map(json.loads, lines)}
        assert sorted(reports) == sorted(tolerances)
        # the matched-ball solve reports how it met its contract
        assert reports["shooting_rtol"]["mu1_ball_tail"] <= 1e-11
        assert reports["residual_tol"]["mu1_ball_residual"] <= 1e-8
        assert all(r["mu1_ball_degree"] >= 24 for r in reports.values())

    def test_profile_files_written(self, run_dir):
        _code, out = run_dir
        for cid in ("ball3", "disk-equality"):
            body = (out / "plots" / f"{cid}_profile.csv").read_text().splitlines()
            assert body[0] == "t,T,Tprime,f_over_S"
            assert len(body) == cli.PROFILE_ROWS + 1
            first = [float(x) for x in body[1].split(",")]
            last = [float(x) for x in body[-1].split(",")]
            assert first[0] < last[0]
            assert abs(last[2]) < 1e-6  # free boundary: T' vanishes at R

    def test_profile_rows_keep_their_bytes(self, tmp_path):
        # one format per row gives byte for byte the per-field _fmt join
        record = cli._run_case(cli.validate_case(shell_case(), "case", "x"))
        rows = record["profile_data"]
        cli._write_profiles([record], tmp_path)
        fields = [",".join(cli._fmt(v) for v in row) for row in rows]
        want = "\n".join(["t,T,Tprime,f_over_S", *fields]) + "\n"
        assert (tmp_path / "plots" / "ball3_profile.csv").read_bytes() == want.encode()

    def test_failing_verdict_exits_two(self, tmp_path):
        case = {
            "id": "offset",
            "space": "euclidean",
            "domain": {"shape": "translated-disk", "radius": 0.8, "center": [0.5, 0.0]},
            "weight": {"family": "exponential-decay", "params": [0.0, 1.0, 0.5]},
            "checks": ["main"],
            "mesh_size": 0.12,
        }
        out = tmp_path / "out"
        cfg = {"schema": 1, "cases": [case]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        summary = (out / "summary.csv").read_text()
        assert "offset" in summary
        assert summary.strip().endswith("fail")
        record = json.loads((out / "reports.jsonl").read_text())
        assert record["failed_checks"] == ["main"]

    @pytest.mark.parametrize("name", cli.CHECK_NAMES)
    def test_one_failing_block_is_the_one_failed_check(self, tmp_path, monkeypatch, name):
        overrides, patched = ONE_FAILING_CHECK[name]
        if patched is not None:
            # the check reports a fail and nothing else changes: the rule
            # reads ``passed``, not ``converged``
            def failing(*args, _fn=getattr(cli, patched)):
                return {**_fn(*args), "passed": False}

            monkeypatch.setattr(cli, patched, failing)
        out = tmp_path / "out"
        cfg = {"schema": 1, "cases": [disk_case(**overrides)]}
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        record = json.loads((out / "reports.jsonl").read_text())
        assert record["failed_checks"] == [name]
        assert record["status"] == "fail"
        assert code == 2

    def test_solver_failure_marks_case_and_continues(self, tmp_path):
        # the weight is defined on [0, 0.3] only but the disk reaches t = 1,
        # so evaluation blows up at run time, after validation succeeded
        broken = disk_case(
            id="short-cap",
            weight={"family": "constant", "params": [0.0], "domain_cap": 0.3},
        )
        cfg = {"schema": 1, "cases": [disk_case(), broken]}
        out = tmp_path / "out"
        code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 1  # error takes precedence, but the run completed
        records = {
            json.loads(line)["id"]: json.loads(line)
            for line in (out / "reports.jsonl").read_text().splitlines()
        }
        assert records["short-cap"]["status"] == "error"
        assert "error" in records["short-cap"]
        assert records["disk-equality"]["status"] == "pass"
        assert (out / "summary.csv").read_text().count("error") == 1

    def test_mesh_file_domain(self, tmp_path, monkeypatch):
        # the file is read once per case, at validation, and a pooled batch
        # runs the loaded mesh to the same records
        mesh = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.15))
        mesh_path = tmp_path / "disk.mesh"
        save(mesh, str(mesh_path))
        cases = [
            disk_case(id=cid, domain={"shape": "mesh-file", "path": str(mesh_path)})
            for cid in ("external-a", "external-b")
        ]
        path = write_config(tmp_path, {"schema": 1, "cases": cases})
        loads = []

        def spy(*args):
            loads.append(args)
            return load_mesh(*args)

        load_mesh = cli.load_mesh
        monkeypatch.setattr(cli, "load_mesh", spy)
        for jobs in (1, 2):
            loads.clear()
            out = tmp_path / f"j{jobs}"
            assert cli.main(["run", path, "--out", str(out), "--jobs", str(jobs)]) == 0
            assert len(loads) == len(cases), jobs
        records = (tmp_path / "j1" / "reports.jsonl").read_bytes()
        assert records == (tmp_path / "j2" / "reports.jsonl").read_bytes()
        assert all(json.loads(line)["report"]["passed"] for line in records.splitlines())

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = {
            "schema": 1,
            "cases": [shell_case(checks=["main", "conjecture"]), disk_case()],
        }
        path = write_config(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", path, "--out", str(out_a)]) == 0
        assert cli.main(["run", path, "--out", str(out_b)]) == 0
        for name in ("reports.jsonl", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = {
            "schema": 1,
            "cases": [
                shell_case(id="a"),
                shell_case(id="b", weight={"family": "constant", "params": [0.0]}),
                disk_case(id="c"),
            ],
        }
        path = write_config(tmp_path, cfg)
        out_serial, out_par = tmp_path / "s", tmp_path / "p"
        assert cli.main(["run", path, "--out", str(out_serial)]) == 0
        assert cli.main(["run", path, "--out", str(out_par), "--jobs", "2"]) == 0
        assert (out_serial / "reports.jsonl").read_bytes() == (
            out_par / "reports.jsonl"
        ).read_bytes()

    def test_module_entry_point(self, tmp_path):
        cfg = {"schema": 1, "cases": [shell_case()]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "wittenlab", "run", path, "--out", str(out), "--verbose"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=src_env(),
            timeout=300,
        )
        assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        assert "ball3: pass" in proc.stdout
        assert (out / "summary.csv").exists()


OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter with ``args``."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

RADIAL_RUN = f"""
import json, sys
from wittenlab import cli

imported = {SCIPY_MODULES}

def probed(case, _execute=cli._execute_case):
    return dict(_execute(case), scipy={SCIPY_MODULES})

cli._execute_case = probed  # the pool's workers look it up by name
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2], "--jobs", "2"])
print(json.dumps({{"imported": imported, "exit": code, "ran": {SCIPY_MODULES}}}))
"""


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # every radial integral goes through the package's own Chebyshev rule,
    # and the DCTs, the natural spline, the radius match, the hull and the
    # radial eigensolve are written out in numpy; scipy's sparse linear
    # algebra comes with the FEM solver, which only a meshed case loads.
    # So neither the import nor a run of two shells through a two-worker
    # pool loads any scipy module, in the front end or in a worker.
    cases = [shell_case(), shell_case(id="shell", domain={
        "shape": "shell", "inner_radius": 0.4, "outer_radius": 1.0})]
    cfg = write_config(tmp_path, {"schema": 1, "cases": cases})
    out = fresh_python(RADIAL_RUN, cfg, str(tmp_path / "out")).splitlines()[-1]
    assert json.loads(out) == {"imported": [], "exit": 0, "ran": []}
    records = [json.loads(line) for line in (tmp_path / "out" / "reports.jsonl").open()]
    assert [(r["id"], r["status"], r["scipy"]) for r in records] == [
        ("ball3", "pass", []), ("shell", "pass", [])
    ]


# ``openblas()``: the thread count of each loaded OpenBLAS, by path
OPENBLAS_READER = f"""
import ctypes

def openblas():
    with open("/proc/self/maps") as fh:
        paths = sorted({{ln.split(maxsplit=5)[5].rstrip("\\n") for ln in fh if "openblas" in ln.lower()}})
    threads = {{}}
    for path in paths:
        lib = ctypes.CDLL(path)
        getter = next((n for n in {OPENBLAS_GETTERS!r} if hasattr(lib, n)), None)
        threads[path] = getattr(lib, getter)() if getter else None
    return threads
"""

MESHED_VALIDATION = f"""
import json, os, sys
from wittenlab import cli
{OPENBLAS_READER}
before, tasks = openblas(), len(os.listdir("/proc/self/task"))
env = os.environ.get("OPENBLAS_NUM_THREADS")
with open(sys.argv[2]) as fh:
    getattr(cli, sys.argv[1])(json.load(fh))
print(json.dumps({{
    "fem": "wittenlab.fem" in sys.modules,
    "started": [t for path, t in openblas().items() if path not in before],
    "new_threads": len(os.listdir("/proc/self/task")) - tasks,
    "env_restored": os.environ.get("OPENBLAS_NUM_THREADS") == env,
}}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc")
@pytest.mark.parametrize("validate", ["validate_run_config", "validate_sweep_config"])
def test_meshed_validation_loads_fem_single_threaded(tmp_path, validate):
    # The FEM solver loads at validation, so forked workers inherit it, and
    # scipy's OpenBLAS starts with one thread: no worker thread starts and
    # spin-waits into the batch.
    if validate == "validate_run_config":
        payload = {"schema": 1, "cases": [disk_case()]}
    else:
        payload = {
            "schema": 1,
            "base_case": disk_case(),
            "sweep": {"parameters": [{"path": "domain.radius", "values": [1.0, 1.5]}]},
        }
    result = json.loads(fresh_python(MESHED_VALIDATION, validate, write_config(tmp_path, payload)))
    assert result["fem"] and result["env_restored"]
    assert result["new_threads"] == 0
    assert all(threads == 1 for threads in result["started"])


ONE_TASK = """
import json, os, sys
if sys.argv[1] == "unset":
    os.environ.pop("OPENBLAS_NUM_THREADS", None)
else:
    os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
from wittenlab import cli

result = {
    "numpy": "numpy" in sys.modules,
    "tasks": len(os.listdir("/proc/self/task")),
    "env": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
}
if len(sys.argv) > 2:
    result["exit"] = cli.main(["run", sys.argv[2], "--out", sys.argv[3]])
    result["tasks_after_run"] = len(os.listdir("/proc/self/task"))
print(json.dumps(result))
"""


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="reads /proc")
@pytest.mark.parametrize("env", ["unset", "3"])
def test_import_starts_no_openblas_thread(env):
    # numpy loads under OPENBLAS_NUM_THREADS=1, so its OpenBLAS starts no
    # worker thread to spin-wait ~0.13 s of CPU into the set-up and the
    # batch; the variable reads as before the import, unset or not
    result = json.loads(fresh_python(ONE_TASK, env))
    assert result == {"numpy": True, "tasks": 1, "env": env}


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="reads /proc")
def test_serial_radial_run_keeps_one_task(tmp_path):
    cfg = write_config(tmp_path, {"schema": 1, "cases": [shell_case()]})
    out = fresh_python(ONE_TASK, "unset", cfg, str(tmp_path / "out")).splitlines()[-1]
    result = json.loads(out)
    assert (result["tasks"], result["exit"], result["tasks_after_run"]) == (1, 0, 1)


NUMPY_FIRST = f"""
import json, os
os.environ["OPENBLAS_NUM_THREADS"] = "2"
import numpy
{OPENBLAS_READER}
before, tasks = openblas(), len(os.listdir("/proc/self/task"))
from wittenlab import cli
print(json.dumps([before, openblas(), tasks, len(os.listdir("/proc/self/task"))]))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc")
def test_numpy_imported_first_keeps_its_threads():
    # the import-time pin only covers a numpy that wittenlab loads; a caller's
    # numpy keeps its count and threads, and each batch pins it instead
    before, after, tasks, tasks_after = json.loads(fresh_python(NUMPY_FIRST))
    if not before:
        pytest.skip("numpy loaded no OpenBLAS")
    assert after == before
    assert tasks_after == tasks


# a module of each deferred package that runs only when the package loads
DEFERRED_BODIES = ("numpy.f2py.crackfortran", "numpy.testing._private.utils")

DEFERRED_RUN = f"""
import json, sys
from wittenlab import cli

def loaded():
    return [m for m in {DEFERRED_BODIES!r} if m in sys.modules]

def probed(case, _execute=cli._execute_case):
    return dict(_execute(case), deferred=loaded())

cli._execute_case = probed  # the pool's workers look it up by name
entry, cfg = sys.argv[1], sys.argv[2]
if entry == "validate_run_config":
    with open(cfg) as fh:
        cli.validate_run_config(json.load(fh))
else:
    getattr(cli, entry)(cfg, sys.argv[3], jobs=int(sys.argv[4]))
front = loaded()

import numpy as np
np.testing.assert_allclose(1.0, 1.0)
from numpy.testing import assert_array_equal
assert_array_equal([1, 2], [1, 2])
import numpy.f2py.crackfortran
print(json.dumps({{"front": front, "after_use": loaded()}}))
"""


@pytest.mark.parametrize("entry,jobs", [("validate_run_config", 1), ("run", 1), ("sweep", 2)])
def test_meshed_start_up_defers_f2py_and_testing(tmp_path, entry, jobs):
    # scipy binds numpy.f2py and numpy.testing while the FEM solver loads;
    # bound as lazy modules, neither runs in the front end or in a worker,
    # and each loads for real at its first use after the run
    if entry == "sweep":
        payload = {
            "schema": 1,
            "base_case": disk_case(),
            "sweep": {"parameters": [{"path": "domain.radius", "values": [1.0, 1.5]}]},
        }
    else:
        payload = {"schema": 1, "cases": [disk_case()]}
    out = tmp_path / "out"
    result = fresh_python(DEFERRED_RUN, entry, write_config(tmp_path, payload), str(out), str(jobs))
    assert json.loads(result.splitlines()[-1]) == {
        "front": [], "after_use": list(DEFERRED_BODIES)
    }
    if entry != "validate_run_config":
        records = [json.loads(line) for line in (out / "reports.jsonl").open()]
        assert len(records) == (2 if entry == "sweep" else 1)
        assert all(r["status"] == "pass" and r["deferred"] == [] for r in records)


PRELOADED_TESTING = """
import json, sys
import numpy, numpy.testing
from wittenlab import cli

before = numpy.testing
with open(sys.argv[1]) as fh:
    cli.validate_run_config(json.load(fh))
print(json.dumps([sys.modules["numpy.testing"] is before, numpy.testing is before]))
"""


def test_meshed_validation_keeps_an_imported_numpy_testing(tmp_path):
    cfg = write_config(tmp_path, {"schema": 1, "cases": [disk_case()]})
    assert json.loads(fresh_python(PRELOADED_TESTING, cfg)) == [True, True]


NO_F2PY_SPEC = f"""
import importlib.util, json, sys
from wittenlab import cli

find_spec = importlib.util.find_spec
asked = []

def without_f2py(name, *args):
    asked.append(name)
    return None if name == "numpy.f2py" else find_spec(name, *args)

importlib.util.find_spec = without_f2py  # as in a numpy built without f2py
cli._load_fem()
print(json.dumps({{
    "asked": "numpy.f2py" in asked,
    "fem": "wittenlab.fem" in sys.modules,
    # whatever numpy.f2py scipy left is the real module, not a lazy one
    "f2py_real": ("numpy.f2py" in sys.modules) == ("numpy.f2py.crackfortran" in sys.modules),
    "testing_deferred": "numpy.testing" in sys.modules
        and "numpy.testing._private.utils" not in sys.modules,
}}))
"""


def test_load_fem_skips_a_module_without_a_spec():
    assert json.loads(fresh_python(NO_F2PY_SPEC)) == {
        "asked": True, "fem": True, "f2py_real": True, "testing_deferred": True
    }


def openblas_api() -> list:
    """``(getter, setter)`` of every loaded OpenBLAS that exports a getter."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {ln.split(maxsplit=5)[5].rstrip("\n") for ln in fh if "openblas" in ln.lower()}
            )
    except OSError:
        return []
    api = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in OPENBLAS_GETTERS:
            if hasattr(lib, name):
                api.append((getattr(lib, name), getattr(lib, name.replace("_get_", "_set_"))))
                break
    return api


def openblas_threads() -> list[int]:
    return [get() for get, _set in openblas_api()]


def report_threads(case: dict) -> dict:
    return {"id": case["id"], "threads": openblas_threads()}


class TestSingleThreadedBlas:
    @pytest.fixture
    def two_threads(self):
        """Every loaded OpenBLAS at 2 threads, so a restore is visible."""
        api = openblas_api()
        if not api:
            pytest.skip("no loaded OpenBLAS exports a thread-count getter")
        before = [get() for get, _set in api]
        for _get, set_ in api:
            set_(2)
        yield len(api)
        for (_get, set_), threads in zip(api, before):
            set_(threads)

    def test_pinned_inside_and_restored_after(self, two_threads):
        with cli._single_threaded_blas():
            assert openblas_threads() == [1] * two_threads
        assert openblas_threads() == [2] * two_threads

    def test_restored_when_the_body_raises(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with cli._single_threaded_blas():
                raise RuntimeError("boom")
        assert openblas_threads() == [2] * two_threads

    def test_pool_worker_inherits_the_pin(self, two_threads):
        with cli._single_threaded_blas():
            with ProcessPoolExecutor(max_workers=1) as pool:
                assert pool.submit(openblas_threads).result() == [1] * two_threads

    def test_batch_runs_pinned(self, two_threads, monkeypatch):
        monkeypatch.setattr(cli, "_execute_case", report_threads)
        records = cli._execute_batch([{"id": "b"}, {"id": "a"}], jobs=1)
        assert records == [
            {"id": "a", "threads": [1] * two_threads},
            {"id": "b", "threads": [1] * two_threads},
        ]
        assert openblas_threads() == [2] * two_threads


SPACED_OPENBLAS = f"""
import ctypes, json, os, shutil, sys
from wittenlab import cli

copy = shutil.copytree(sys.argv[1], sys.argv[2])
name = next(n for n in os.listdir(copy) if "openblas" in n)
lib = ctypes.CDLL(os.path.join(copy, name))
getter = next(n for n in {OPENBLAS_GETTERS!r} if hasattr(lib, n))
get, set_ = getattr(lib, getter), getattr(lib, getter.replace("_get_", "_set_"))
set_(2)
if sys.argv[3] == "unlinked":
    os.remove(os.path.join(copy, name))
with cli._single_threaded_blas():
    inside = get()
print(json.dumps([inside, get()]))
"""


@pytest.mark.parametrize("state, inside", [("linked", 1), ("unlinked", 2)])
def test_blas_pin_reads_a_library_path_with_a_space(tmp_path, state, inside):
    # a copy of numpy's OpenBLAS under "with space" is pinned with the rest;
    # once unlinked, its mapping reads "... (deleted)" and the pin skips it
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not any("openblas" in lib.name for lib in libs.glob("*")):
        pytest.skip("numpy ships no OpenBLAS in numpy.libs")
    out = fresh_python(SPACED_OPENBLAS, str(libs), str(tmp_path / "with space"), state)
    assert json.loads(out) == [inside, 2]


@pytest.mark.parametrize("jobs,workers", [(64, 3), (2, 2)])
def test_pool_workers_capped_at_case_count(monkeypatch, jobs, workers):
    # a fork pool starts all its workers at the first submit; this stand-in
    # records the count asked for and maps in-process, starting none
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_execute_case", lambda case: {"id": case["id"]})
    records = cli._execute_batch([{"id": "c"}, {"id": "a"}, {"id": "b"}], jobs=jobs)
    assert asked == [workers]
    assert records == [{"id": "a"}, {"id": "b"}, {"id": "c"}]


def count_calls(monkeypatch, names):
    """Count calls of ``names`` wherever the checker and the front end look
    them up; the returned dict fills in as the calls happen."""
    counts = dict.fromkeys(names, 0)
    for module in (checker, cli):
        for name in names:
            if not hasattr(module, name):
                continue

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


class TestOneSolvePerCase:
    def test_shell_solves_domain_and_ball_once(self, monkeypatch):
        counts = count_calls(monkeypatch, ("shoot_first_mode", "symmetric_spectrum"))
        raw = shell_case(checks=["main", "sharper", "conjecture", "lemma23"])
        record = cli._run_case(cli.validate_case(raw, "case", "x"))
        assert record["status"] == "pass"
        assert counts == {"shoot_first_mode": 1, "symmetric_spectrum": 1}

    def test_disk_meshes_once_and_shoots_once(self, monkeypatch):
        # The second disk is translated under an exponential weight, so its
        # open-question check escalates: that solve continues from the
        # finest level (2) to levels 3 and 4 and solves a second ball.
        offset = {
            "id": "offset",
            "space": "euclidean",
            "domain": {"shape": "translated-disk", "radius": 0.8, "center": [0.5, 0.0]},
            "weight": {"family": "exponential-decay", "params": [0.0, 1.0, 0.5]},
            "checks": ["main", "conjecture"],
            "mesh_size": 0.15,
        }
        inputs = [
            (disk_case(checks=["main", "sharper", "center"], refinement_levels=2),
             "pass", {"shoot_first_mode": 1, "generate": 1, "refine": 2}),
            (offset, "fail", {"shoot_first_mode": 2, "generate": 1, "refine": 4}),
        ]
        for raw, status, expected in inputs:
            with monkeypatch.context() as patch:
                counts = count_calls(patch, ("shoot_first_mode", "generate", "refine"))
                record = cli._run_case(cli.validate_case(raw, "case", "x"))
            assert record["status"] == status
            assert counts == expected, raw["id"]

    def test_escalation_note_survives_with_sharper(self):
        # the translated exponential-weight disk of the checker's escalation
        # test: the open-question margin stays negative after escalating
        raw = {
            "id": "offset",
            "space": "euclidean",
            "domain": {"shape": "translated-disk", "radius": 0.8, "center": [0.5, 0.0]},
            "weight": {"family": "exponential-decay", "params": [0.0, 1.0, 0.5]},
            "checks": ["main", "sharper", "conjecture"],
            "mesh_size": 0.15,
        }
        report = cli._run_case(cli.validate_case(raw, "case", "x"))["report"]
        assert report["conjecture"]["escalated"]
        assert report["conjecture"]["verdict"] == "counterexample-candidate"
        assert any("re-examined at higher resolution" in note for note in report["notes"])


def count_match_volumes(monkeypatch) -> list[int]:
    """Spy on the checker: each radius match appends to the returned list
    the number of weighted volumes it evaluated."""
    counts, inside = [], []
    match, volume = checker.match_ball_radius, checker.weighted_annulus_volume

    def counted_match(*args):
        inside.append(0)
        try:
            return match(*args)
        finally:
            counts.append(inside.pop())

    def counted_volume(*args):
        if inside:
            inside[-1] += 1
        return volume(*args)

    monkeypatch.setattr(checker, "match_ball_radius", counted_match)
    monkeypatch.setattr(checker, "weighted_annulus_volume", counted_volume)
    return counts


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    """The records of the bundled suite and the off-centre probe, by config,
    and the volumes each of their radius matches evaluated."""
    records = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        volumes = count_match_volumes(monkeypatch)
        for config, expected in (("theorem_suite", 0), ("offcenter_probe", 2)):
            out = tmp_path_factory.mktemp(config)
            code = cli.main(["run", str(ROOT / "configs" / f"{config}.json"), "--out", str(out)])
            assert code == expected, config
            lines = (out / "reports.jsonl").read_text().splitlines()
            records[config] = [json.loads(line) for line in lines]
    return records, volumes


@pytest.fixture(scope="module")
def bundled_records(bundled_runs):
    return bundled_runs[0]


# the radial benchmark's balls and shells, one seed's draw: a flat ball, a
# flat shell with the sharper block (which matches from an inner radius),
# and two hyperbolic shells, the second under a tabulated spline
RADIAL_BENCHMARK_CASES = [
    ("euclidean", 2, 0.0, 1.0588, {"family": "constant", "params": [0.0]}),
    ("euclidean", 4, 0.4367, 1.1027,
     {"family": "exponential-decay", "params": [0.0, 0.9689, 0.4317]}),
    ("hyperbolic", 3, 0.2851, 1.0204,
     {"family": "linear-decreasing", "params": [0.1971, 0.2964]}),
    ("hyperbolic", 5, 0.3067, 0.978,
     {"family": "tabulated-spline", "domain_cap": 3.0,
      "params": [0.0, 1.8028, 1.0, 0.81126, 2.0, 0.31549, 3.0, 0.0]}),
]


def test_radius_matches_start_near_their_root(bundled_runs, tmp_path, monkeypatch):
    # each match starts at a proven upper bound of its root instead of the
    # weight's cap (12 to 16 volumes from there): up to five volumes reach
    # the root, and the stopping rules may take up to two more steps of an
    # ulp or two at the volume's round-off
    volumes = list(bundled_runs[1])
    spied = count_match_volumes(monkeypatch)
    cases = [
        {"id": f"r{i}", "space": space, "dimension": n,
         "domain": {"shape": "shell", "inner_radius": inner, "outer_radius": outer},
         "weight": weight, "checks": ["main", "sharper"] if i == 1 else ["main"]}
        for i, (space, n, inner, outer, weight) in enumerate(RADIAL_BENCHMARK_CASES)
    ]
    config = write_config(tmp_path, {"schema": 1, "cases": cases})
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == 0
    assert len(spied) == 6 and len(volumes) >= 10
    assert max(volumes + spied) <= 7, (volumes, spied)


@pytest.mark.parametrize("config", ["theorem_suite", "offcenter_probe"])
def test_failed_checks_are_the_blocks_that_did_not_pass(bundled_records, config):
    for record in bundled_records[config]:
        blocks = check_blocks(record)
        failed = [name for name in record["checks"] if not blocks[name]["passed"]]
        assert record.get("failed_checks", []) == failed, record["id"]
        assert record["status"] == ("fail" if failed else "pass"), record["id"]
        for name in ("main", "conjecture"):
            block = blocks[name]
            if block is not None:
                assert block["passed"] == (block["gap"] >= -block["tol_budget"]), name
        sharper = blocks["sharper"]
        if sharper is not None:
            low = min(sharper["gap"], sharper["rhs"])
            assert sharper["passed"] == (low >= -sharper["tol_budget"]), record["id"]


class TestSweep:
    def sweep_config(self, **overrides):
        cfg = {
            "schema": 1,
            "base_case": {
                "id": "family",
                "space": "euclidean",
                "dimension": 3,
                "domain": {"shape": "shell", "inner_radius": 0.0, "outer_radius": 1.0},
                "weight": {"family": "linear-decreasing", "params": [0.0, 0.2]},
                "checks": ["main", "conjecture"],
            },
            "sweep": {
                "parameters": [
                    {"path": "domain.inner_radius", "values": [0.0, 0.2, 0.4]}
                ]
            },
        }
        cfg.update(overrides)
        return cfg

    def test_single_parameter_family(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["sweep", write_config(tmp_path, self.sweep_config()), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "case_id,domain.inner_radius,gap,sharper_gap,conjecture_margin,verdict"
        )
        assert len(lines) == 4
        summary = json.loads((out / "sweep_summary.json").read_text())
        # the ball is the equality case, so it carries the smallest margin
        assert summary["minimal_margin"]["parameters"]["domain.inner_radius"] == 0.0
        assert summary["margin_kind"] == "conjecture"

    def test_two_parameter_grid(self, tmp_path):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"] = [
            {"path": "domain.inner_radius", "values": [0.0, 0.3]},
            {"path": "weight.params.1", "values": [0.0, 0.5]},
        ]
        out = tmp_path / "out"
        code = cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 grid
        assert lines[0].startswith("case_id,domain.inner_radius,weight.params.1,")

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"] = []
        code = cli.main(
            ["sweep", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "sweep.parameters" in capsys.readouterr().err

    def test_empty_values_rejected(self, tmp_path, capsys):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"][0]["values"] = []
        code = cli.main(
            ["sweep", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "values" in capsys.readouterr().err

    def test_base_case_id_that_breaks_output_files_refused(self, tmp_path, capsys):
        cfg = self.sweep_config()
        cfg["base_case"]["id"] = "sub/dir,x"
        out = tmp_path / "o"
        assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: base_case.id: 'sub/dir,x")
        assert not out.exists()

    def test_dangling_path_rejected(self, tmp_path, capsys):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"][0]["path"] = "domain.apsect"
        code = cli.main(
            ["sweep", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "does not address an existing field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, prefix",
        [
            ("domian", "domian"),
            ("domain.apsect.x", "domain.apsect"),
            ("weight.params.2", "weight.params.2"),
            ("weight.params.-3.x", "weight.params.-3"),
            ("weight.params.one", "weight.params.one"),
            ("weight.params.0.x", "weight.params.0.x"),
            ("weight.family.x", "weight.family.x"),
        ],
    )
    def test_path_failure_names_its_failing_prefix(self, tmp_path, capsys, path, prefix):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"][0]["path"] = path
        code = cli.main(
            ["sweep", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"config error: sweep.parameters[0].path: {prefix!r} does not address an "
            "existing field"
        )

    def test_error_member_rows(self, tmp_path):
        # a shell beyond the weight's cap is refused by the solve, not by
        # validation: that member's record is an error, its row has no gaps
        cfg = self.sweep_config()
        cfg["base_case"].update(id="fam", checks=["main", "sharper"])
        cfg["base_case"]["weight"]["domain_cap"] = 2.0
        cfg["sweep"]["parameters"] = [{"path": "domain.outer_radius", "values": [1.0, 3.0]}]
        out = tmp_path / "out"
        assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[1].startswith("fam--domain_outer_radius=1,1,") and rows[1].endswith(",pass")
        assert rows[2:] == ["fam--domain_outer_radius=3,3,,,,error"]
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["errors"] == 1
        assert summary["margin_kind"] == "main-gap"
        assert summary["minimal_margin"]["case_id"] == "fam--domain_outer_radius=1"
        assert summary["minimal_margin"]["parameters"] == {"domain.outer_radius": 1.0}

    @pytest.mark.parametrize(
        "first, second",
        [("weight.params.1", "weight.params.-1"), ("weight.params.1", "weight.params.01"),
         ("domain.inner_radius", "domain.inner_radius")],
    )
    def test_two_paths_to_one_field_rejected(self, first, second):
        # both members ran with the second axis's value while sweep.csv
        # labelled them with the first's
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"] = [
            {"path": first, "values": [0.2, 0.3]}, {"path": second, "values": [0.4]}
        ]
        with pytest.raises(cli.ConfigError, match="address one field"):
            cli.validate_sweep_config(cfg)

    def test_negative_index_addresses_its_own_field(self):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"] = [
            {"path": "weight.params.0", "values": [0.1]}, {"path": "weight.params.-1", "values": [0.4]}
        ]
        (case, params), = cli.validate_sweep_config(cfg)[1]
        assert params == {"weight.params.0": 0.1, "weight.params.-1": 0.4}
        assert case["weight"].params == (0.1, 0.4)

    def test_integer_field_sweeps_over_integers(self, tmp_path):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"] = [{"path": "dimension", "values": [2, 3, 4]}]
        out = tmp_path / "out"
        code = cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
        assert [r["id"] for r in records] == [f"family--dimension={n}" for n in (2, 3, 4)]
        assert [r["report"]["dimension"] for r in records] == [2, 3, 4]
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["2", "3", "4"]
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert type(summary["minimal_margin"]["parameters"]["dimension"]) is int

    def test_refinement_levels_sweep_validates(self):
        cfg = self.sweep_config()
        cfg["base_case"].update(
            domain={"shape": "disk", "radius": 1.0}, refinement_levels=1, mesh_size=0.2
        )
        del cfg["base_case"]["dimension"]
        cfg["sweep"]["parameters"] = [{"path": "refinement_levels", "values": [1, 2]}]
        _paths, grid = cli.validate_sweep_config(cfg)
        assert [case["refinements"] for case, _params in grid] == [1, 2]
        assert [case["id"] for case, _params in grid] == [
            "family--refinement_levels=1", "family--refinement_levels=2"
        ]

    def test_fractional_value_of_an_integer_field_refused(self, tmp_path, capsys):
        cfg = self.sweep_config()
        cfg["sweep"]["parameters"] = [{"path": "dimension", "values": [2, 2.5]}]
        code = cli.main(
            ["sweep", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "base_case.dimension: wrong type" in capsys.readouterr().err

    def test_bad_grid_member_fails_validation_upfront(self, tmp_path, capsys):
        cfg = self.sweep_config()
        # 0.4 as an inner radius is fine, 1.2 exceeds the outer radius
        cfg["sweep"]["parameters"][0]["values"] = [0.4, 1.2]
        out = tmp_path / "out"
        code = cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        assert not (out / "sweep.csv").exists()
