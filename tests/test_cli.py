import csv
import ctypes
import errno
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import qrot.cli
import qrot.io
import qrot.solver
from qrot.cli import main
from qrot.io import (
    canonical_json,
    decode_extended,
    instance_from_dict,
    instance_to_dict,
)
from qrot import PotentialConsistencyError, Potentials, ValidationError, density_from_potentials
from qrot.projection import project
from conftest import (
    block_instance,
    quadratic_doc,
    random_symmetric_instance,
    schema1_report,
    schema2_report,
    tied_cost_instance,
    tiny_eps_symmetric_instance,
)


# the references pull the optimum away from the marginals: one sweep leaves a residual
REFS_DOC = {
    "schema_version": 1,
    "mu": [0.2, 0.5, 0.3],
    "nu": [0.3, 0.3, 0.4],
    "mu_tilde": [0.5, 0.25, 0.25],
    "nu_tilde": [0.2, 0.4, 0.4],
    "epsilon": 1.0,
    "generator": {"kind": "quadratic_1d", "x": [0.0, 0.5, 1.0], "y": [0.0, 0.4, 1.0]},
}


# three diagonal blocks; at tau_rel 0.9 only the two 1 x 1 blocks keep a cell
BLOCKS_DOC = {
    "schema_version": 1,
    "mu": [0.25] * 4,
    "nu": [0.25] * 4,
    "epsilon": 0.1,
    "cost": [[0.0, 0.2, 3.0, 3.5], [0.3, 0.0, 2.5, 3.0],
             [3.0, 2.75, 0.0, 3.25], [3.5, 3.0, 2.0, 0.0]],
}


def write_json(path, doc):
    path.write_text(canonical_json(doc))
    return str(path)


def offdiag_doc(gamma=1.0, eps=1.0):
    return {
        "schema_version": 1,
        "mu": [0.5, 0.5],
        "nu": [0.5, 0.5],
        "generator": {"kind": "indicator_offdiag", "gamma": gamma},
        "epsilon": eps,
    }


class TestInstanceFormat:
    def test_generator_offdiag(self):
        loaded = instance_from_dict(offdiag_doc(0.5))
        np.testing.assert_allclose(loaded.instance.cost, 2.5 * (1 - np.eye(2)))

    def test_generator_quadratic(self):
        loaded = instance_from_dict(quadratic_doc(4))
        assert loaded.x is not None
        assert loaded.instance.cost[0, -1] == pytest.approx(1.0)

    def test_dense_cost_accepted(self):
        doc = {
            "schema_version": 1,
            "mu": [0.5, 0.5],
            "nu": [0.5, 0.5],
            "cost": [[0.0, 1.0], [1.0, 0.0]],
        }
        loaded = instance_from_dict(doc)
        assert loaded.instance.epsilon == 1.0  # default when omitted

    def test_cost_and_generator_mutually_exclusive(self):
        doc = offdiag_doc()
        doc["cost"] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValidationError, match="exactly one"):
            instance_from_dict(doc)
        doc.pop("cost")
        doc.pop("generator")
        with pytest.raises(ValidationError, match="exactly one"):
            instance_from_dict(doc)

    def test_schema_version_checked(self):
        doc = offdiag_doc()
        doc["schema_version"] = 2
        with pytest.raises(ValidationError, match="schema_version"):
            instance_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mu", ["a", 0.5]),
            ("nu_tilde", "x"),
            ("cost", [[0.0, 1.0], [1.0]]),
            ("generator", {"kind": "quadratic_1d", "x": [0.0, "a"], "y": [0.0, 1.0]}),
            ("generator", {"kind": "indicator_offdiag", "gamma": [1.0, 2.0]}),
        ],
    )
    def test_non_numeric_fields_rejected(self, key, value):
        doc = offdiag_doc()
        if key == "cost":
            doc.pop("generator")
        doc[key] = value
        with pytest.raises(ValidationError, match="is not numeric"):
            instance_from_dict(doc)

    def test_roundtrip_through_dict(self):
        loaded = instance_from_dict(offdiag_doc(1.0))
        again = instance_from_dict(instance_to_dict(loaded.instance))
        np.testing.assert_array_equal(again.instance.cost, loaded.instance.cost)

    def test_extended_matrix_decoding(self):
        # older analysis files wrote an absent constraint, of either sign, as "inf"
        rng = np.random.default_rng(2)
        assert decode_extended([]).size == 0
        for shape in ((1, 1), (5, 5), (3, 40), (40, 40)):
            a = rng.normal(size=shape)
            a[rng.random(shape) < 0.2] = math.inf
            a[rng.random(shape) < 0.05] = -math.inf
            rows = [["inf" if math.isinf(v) else float(v) for v in row] for row in a]
            decoded = decode_extended(json.loads(json.dumps(rows)))
            np.testing.assert_array_equal(decoded, np.where(np.isinf(a), math.inf, a))

    def test_analysis_matrices_round_trip(self, tmp_path, capsys):
        # analyze writes a and dist as plain numbers; decoding gives back their bits
        inst = block_instance(np.random.default_rng(9), 6)
        p, _ = qrot.solver.solve(inst)
        report = write_json(
            tmp_path / "report.json",
            {
                "schema_version": 3,
                "instance": instance_to_dict(inst),
                "potentials": {"f": p.f, "g": p.g, "symmetric": False},
            },
        )
        assert main(["analyze", report]) == 0
        poly = json.loads(capsys.readouterr().out)["polytope"]
        z = density_from_potentials(inst, p)
        s = qrot.cli.support_set(z, tau=qrot.cli.DEFAULT_TAU_REL * float(z.max()))
        pd = qrot.cli.compute_polytope(inst, p, qrot.cli.components(s), s)
        for key in ("a", "dist"):
            decoded = decode_extended(poly[key])
            assert decoded.shape == (6, 6) and np.isfinite(decoded).all()
            np.testing.assert_array_equal(decoded.view(np.uint64), getattr(pd, key).view(np.uint64))

    @pytest.mark.parametrize("entry", [None, "abc", "nan"])
    def test_extended_matrix_rejects_non_numbers(self, entry):
        with pytest.raises(ValidationError, match="invalid extended matrix"):
            decode_extended([[0.0, entry], [1.0, 0.0]])


class TestSolveCommand:
    def test_solve_writes_full_report(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        report_path = tmp_path / "report.json"
        assert main(["solve", path, "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert abs(doc["report"]["duality_gap"]) <= 1e-10
        np.testing.assert_array_equal(np.array(doc["density"]["z"]) > 0, np.eye(2))
        # the analysis of the solve is analyze's
        assert main(["analyze", str(report_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        support = (np.array(out["components"]["labels"]) >= 0).astype(int)
        np.testing.assert_array_equal(support, [[1, 0], [0, 1]])
        assert out["polytope"]["a"][0][1] == pytest.approx(1.0, abs=1e-9)
        assert out["polytope"]["dimension"] == 2

    def test_malformed_weights_exit_one(self, tmp_path, capsys):
        doc = offdiag_doc()
        doc["mu"] = [0.5, 0.0]
        path = write_json(tmp_path / "bad.json", doc)
        rc = main(["solve", path])
        err = capsys.readouterr().err
        assert rc == 1
        assert "nonpositive weight at mu[1]" in err

    def test_sweep_budget_exhaustion_exit_two(self, tmp_path, capsys):
        doc = instance_to_dict(random_symmetric_instance(np.random.default_rng(0)), symmetric=True)
        path = write_json(tmp_path / "hard.json", doc)
        out_path = tmp_path / "report.json"
        rc = main(["solve", path, "--max-sweeps", "1", "--out", str(out_path)])
        assert rc == 2
        report = json.loads(out_path.read_text())  # report still written
        assert report["report"]["converged"] is False

    def test_missing_file_exit_one(self, capsys):
        rc = main(["solve", "/nonexistent/inst.json"])
        assert rc == 1

    def test_directory_input_exit_one(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unreadable_input_exit_one(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))

        def denied(p):
            raise PermissionError(errno.EACCES, "Permission denied", p)

        monkeypatch.setattr(qrot.io, "load_instance", denied)
        rc = main(["solve", path])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")

    def test_solve_runs_no_analysis(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))

        def inconsistent(*args, **kwargs):
            raise PotentialConsistencyError("a[0,1] = -7.4e-08 < 0")

        for name in ("support_set", "components", "compute_polytope"):
            monkeypatch.setattr(qrot.cli, name, inconsistent)
        rc = main(["solve", path])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert json.loads(captured.out)["report"]["converged"] is True

    def test_dual_decrease_exit_two(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        # a sweep that lowers both potentials lowers the dual value
        monkeypatch.setattr(qrot.solver, "sweep", lambda inst, p: Potentials(p.f - 1, p.g - 1))
        rc = main(["solve", path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: dual objective decreased")

    def test_determinism_byte_identical(self, tmp_path):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["solve", path, "--out", str(out_a)]) == 0
        assert main(["solve", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_determinism_byte_identical_after_newton_steps(self, tmp_path):
        path = write_json(tmp_path / "inst.json", quadratic_doc(40))
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["solve", path, "--eps", "0.01", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_report_roundtrip_lossless(self, tmp_path):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        out = tmp_path / "report.json"
        assert main(["solve", path, "--out", str(out)]) == 0
        text = out.read_text()
        assert canonical_json(json.loads(text)) == text

    def test_eps_flag_overrides_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0, eps=1.0))
        rc = main(["solve", path, "--eps", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["instance"]["epsilon"] == 0.5


class TestAnalyzeCommand:
    def test_analyze_instance(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["analyze", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["components"]["count"] == 2
        assert doc["polytope"]["a"][0][1] == pytest.approx(1.0, abs=1e-9)

    def test_analyze_rigid_boundary(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(0.0))
        rc = main(["analyze", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["polytope"]["rigid_pairs"] == [[0, 1]]
        assert doc["polytope"]["dimension"] == 1

    def test_overflowing_slack_exit_one(self, tmp_path, capsys):
        # off the diagonal, (f + g - cost) / epsilon is about -1e310: no float holds the slack
        doc = {"schema_version": 1, "mu": [0.5, 0.5], "nu": [0.5, 0.5], "epsilon": 1e-10,
               "cost": [[0.0, 1e300], [1e300, 0.0]]}
        path = write_json(tmp_path / "inst.json", doc)
        message = (
            "error: slack a[0,1] is not finite: (f + g - cost) / epsilon overflows"
            " at epsilon 1e-10\n"
        )
        rc = main(["analyze", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == message
        # numpy's overflow warning would reach the stderr of a plain run
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qrot.cli.__file__)))
        argv = [sys.executable, "-W", "default", "-m", "qrot", "analyze", path]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message)

    def test_analyze_full_support(self, tmp_path, capsys):
        doc_in = offdiag_doc(-1.0)  # cost eta = 1 off the diagonal
        path = write_json(tmp_path / "inst.json", doc_in)
        rc = main(["analyze", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["components"]["count"] == 1
        assert doc["polytope"]["dimension"] == 1

    def test_lines_meeting_no_cell(self, tmp_path, capsys):
        path = write_json(tmp_path / "blocks.json", BLOCKS_DOC)
        rc = main(["analyze", path, "--tau-rel", "0.9", "--samples", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        comp, poly = out["components"], out["polytope"]
        assert comp["count"] == 2 and poly["dimension"] == 2
        assert comp["unmatched_rows"] == comp["unmatched_cols"] == [0, 1]
        labels = np.array(comp["labels"])
        assert (labels[[0, 1]] == -1).all()
        for key, unmatched in (("row_projections", "unmatched_rows"),
                               ("col_projections", "unmatched_cols")):
            covered = sorted(line for proj in comp[key] for line in proj)
            assert covered == sorted(set(range(4)) - set(comp[unmatched]))
        assert len(out["sampled_shifts"]) == 1

    def test_analyze_report_file(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        report_path = tmp_path / "report.json"
        assert main(["solve", inst_path, "--out", str(report_path)]) == 0
        rc = main(["analyze", str(report_path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["components"]["count"] == 2

    def test_inconsistent_potentials_exit_two(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))

        def inconsistent(*args):
            raise PotentialConsistencyError("a[0,1] = -7.4e-08 < 0")

        monkeypatch.setattr(qrot.cli, "compute_polytope", inconsistent)
        out = tmp_path / "analysis.json"
        rc = main(["analyze", path, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: a[0,1] = -7.4e-08 < 0\n"
        assert not out.exists()

    def test_unconverged_solve_exit_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "refs.json", REFS_DOC)
        out = tmp_path / "analysis.json"
        rc = main(["analyze", path, "--max-sweeps", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: the solve did not converge: marginal residual ")
        assert captured.err.endswith(", above tol_residual 1e-10\n")
        assert captured.err.count("\n") == 1
        assert not out.exists()
        assert main(["analyze", path, "--out", str(out)]) == 0

    def test_report_without_tol_residual(self, tmp_path, capsys):
        # reports without provenance.tol_residual are checked at the default tolerance
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        report_path = tmp_path / "report.json"
        assert main(["solve", inst_path, "--out", str(report_path)]) == 0
        assert main(["analyze", str(report_path)]) == 0
        expected = capsys.readouterr().out
        doc = json.loads(report_path.read_text())
        del doc["provenance"]["tol_residual"]
        write_json(report_path, doc)
        assert main(["analyze", str(report_path)]) == 0
        assert capsys.readouterr().out == expected
        doc["potentials"]["f"][0] += 1e-6
        write_json(report_path, doc)
        assert main(["analyze", str(report_path)]) == 2
        assert capsys.readouterr().err.endswith(" above the report's tol_residual 1e-10\n")

    def test_tampered_report_exit_two(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        report_path = tmp_path / "report.json"
        assert main(["solve", inst_path, "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        doc["potentials"]["f"], doc["potentials"]["g"] = [5.0, 0.0], [0.0, 0.0]
        write_json(report_path, doc)
        rc = main(["analyze", str(report_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: stored potentials have marginal residual 2.500e+00")
        assert captured.err.count("\n") == 1
        doc["potentials"]["f"] = [0.0, 0.0, 0.0]
        write_json(report_path, doc)
        assert main(["analyze", str(report_path)]) == 1
        assert capsys.readouterr().err.startswith("error: dimension mismatch")

    @pytest.mark.parametrize(
        "flag",
        [["--eps", "0.5"], ["--tol", "1e-6"], ["--max-sweeps", "0"], ["--symmetric"],
         ["--eps", "-1"]],
    )
    def test_report_rejects_solver_flags(self, tmp_path, capsys, monkeypatch, flag):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        report_path = tmp_path / "report.json"
        assert main(["solve", inst_path, "--out", str(report_path)]) == 0
        calls = []
        monkeypatch.setattr(qrot.cli, "solve", lambda *args: calls.append(args))
        monkeypatch.setattr(qrot.cli, "solve_symmetric", lambda *args: calls.append(args))
        out_path = tmp_path / "analysis.json"
        rc = main(["analyze", str(report_path), *flag, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: analyze reuses the report's solve, so it takes no {flag[0]}\n"
        assert calls == []
        assert not out_path.exists()

    def test_symmetric_flag_honoured(self, tmp_path, capsys, monkeypatch):
        doc = instance_to_dict(random_symmetric_instance(np.random.default_rng(0)))
        path = write_json(tmp_path / "inst.json", doc)
        calls = []

        def recording(inst, cfg):
            calls.append(inst)
            return qrot.solver.solve_symmetric(inst, cfg)

        monkeypatch.setattr(qrot.cli, "solve_symmetric", recording)
        assert main(["analyze", path]) == 0
        assert calls == []
        assert main(["analyze", path, "--symmetric"]) == 0
        assert len(calls) == 1

    def test_sampled_shifts_seeded(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["analyze", path, "--samples", "3", "--seed", "9"])
        first = json.loads(capsys.readouterr().out)
        assert rc == 0
        main(["analyze", path, "--samples", "3", "--seed", "9"])
        second = json.loads(capsys.readouterr().out)
        assert first["sampled_shifts"] == second["sampled_shifts"]

    def test_negative_seed_exit_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["analyze", path, "--samples", "1", "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --seed must be nonnegative")
        assert captured.err.count("\n") == 1

    def test_negative_samples_exit_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["analyze", path, "--samples", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --samples must be nonnegative")
        assert captured.err.count("\n") == 1


class TestSweepCommand:
    def test_csv_rows(self, tmp_path):
        path = write_json(tmp_path / "grid.json", quadratic_doc(8))
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", path, "--eps-list", "1,0.1,0.01", "--delta", "0.2", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per epsilon
        header = lines[0].split(",")
        assert header[0] == "epsilon" and "containment" in header

    def test_missing_out_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "grid.json", quadratic_doc(8))
        calls = []
        monkeypatch.setattr(qrot.cli, "epsilon_sweep", lambda *args: calls.append(args))
        rc = main(["sweep", path, "--eps-list", "1,0.1", "--delta", "0.2"])
        assert rc == 1
        assert "--out" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "eps_list, rel", [("0.1", 0.0), ("1.0,0.1,0.01,0.001", 1e-12)], ids=["single", "schedule"]
    )
    def test_rows_match_solve_with_references(self, tmp_path, eps_list, rel):
        # each row solves the file's instance, its references included, at its
        # epsilon; a schedule warm starts every solve but the first
        doc = dict(
            quadratic_doc(6),
            mu=[0.1, 0.2, 0.15, 0.25, 0.2, 0.1],
            mu_tilde=[0.3, 0.1, 0.1, 0.2, 0.2, 0.1],
            nu_tilde=[0.05, 0.15, 0.2, 0.2, 0.3, 0.1],
        )
        path = write_json(tmp_path / "refs.json", doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--eps-list", eps_list, "--delta", "0.2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["epsilon"] for row in rows] == eps_list.split(",")
        for row in rows:
            report_path = tmp_path / "report.json"
            assert main(["solve", path, "--eps", row["epsilon"], "--out", str(report_path)]) == 0
            report = json.loads(report_path.read_text())["report"]
            for key in ("primal_value", "dual_value"):
                assert float(row[key]) == pytest.approx(report[key], rel=rel, abs=0.0)

    def test_requires_coordinates(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["sweep", path, "--eps-list", "1,0.1", "--delta", "0.1", "--out", "x.csv"])
        assert rc == 1
        assert "quadratic_1d" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param("sweep", ["--seed", "1"], id="sweep"),
            pytest.param("verify", ["--seed", "1"], id="verify"),
            pytest.param("oracle", ["--seed", "1"], id="oracle"),
            pytest.param("solve", ["--seed", "1"], id="solve-seed"),
            pytest.param("solve", ["--tau-rel", "0.5"], id="solve-tau-rel"),
            pytest.param("analyze", ["--normalization", "none"], id="analyze-normalization"),
            pytest.param("verify", ["--normalization", "none"], id="verify-normalization"),
            pytest.param("oracle", ["--normalization", "none"], id="oracle-normalization"),
            pytest.param("solve", ["--normalization", "none"], id="solve-normalization"),
            pytest.param("sweep", ["--eps", "0.1"], id="sweep-eps"),
            pytest.param("sweep", ["--symmetric"], id="sweep-symmetric"),
        ],
    )
    def test_seed_unrecognized(self, tmp_path, capsys, command, flag):
        # only analyze draws random numbers or builds the support, so only it
        # takes --seed and --tau-rel; no command takes --normalization, since
        # solve always returns the pair with f[0] = 0; sweep takes its
        # epsilons from --eps-list and always runs the general solve
        path = write_json(tmp_path / "grid.json", quadratic_doc(8))
        extra = {
            "sweep": ["--eps-list", "1,0.1", "--delta", "0.2", "--out", str(tmp_path / "x.csv")],
            "verify": ["--potentials", str(tmp_path / "pair.json")],
        }.get(command, [])
        with pytest.raises(SystemExit) as exc:
            main([command, path, *extra, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps-list", "1,abc"], "error: --eps-list entry 'abc' is not a number"),
            (["--eps-list", ","], "error: --eps-list names no epsilon"),
            (["--delta", "nan"], "error: --delta must be finite and nonnegative, got nan"),
            (["--delta", "inf"], "error: --delta must be finite and nonnegative, got inf"),
            (["--delta", "-0.1"], "error: --delta must be finite and nonnegative, got -0.1"),
            (["--eps-list", "1,0.1,nan"], "error: nonfinite epsilon"),
            (["--eps-list", "inf,1"], "error: nonfinite epsilon"),
            (["--eps-list", "1,0"], "error: nonpositive epsilon"),
            (["--eps-list", "0.1,1"], "error: epsilons must be strictly decreasing"),
        ],
    )
    def test_bad_numeric_flag_exit_one(self, tmp_path, capsys, monkeypatch, flags, message):
        path = write_json(tmp_path / "grid.json", quadratic_doc(8))
        calls = []
        monkeypatch.setattr(qrot.cli, "epsilon_sweep", lambda *args: calls.append(args))
        argv = {"--eps-list": "1,0.1", "--delta": "0.2", "--out": str(tmp_path / "x.csv")}
        argv.update(zip(flags[::2], flags[1::2]))
        rc = main(["sweep", path, *(tok for item in argv.items() for tok in item)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == message + "\n"
        assert calls == []
        assert not (tmp_path / "x.csv").exists()


class TestNumericFlags:
    @pytest.mark.parametrize("command", ["analyze"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1", "2"])
    def test_bad_tau_rel_exit_one_before_solving(self, tmp_path, capsys, command, value):
        # tau = tau_rel * max z, so tau_rel >= 1 would leave no support at all;
        # the input file does not exist, so the flag must be rejected before any load
        out = tmp_path / "out.json"
        rc = main([command, str(tmp_path / "missing.json"), "--tau-rel", value, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: --tau-rel must be in [0, 1), got {float(value)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag", [("verify", "--tol-verify"), ("oracle", "--tol-oracle")]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_one_before_solving(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(tmp_path / "pot.json", {"f": [0.3, 0.8], "g": [1.7, 1.2]})
        calls = []
        monkeypatch.setattr(qrot.cli, "solve", lambda *args: calls.append(args))
        extra = ["--potentials", pot_path] if command == "verify" else []
        rc = main([command, path, *extra, flag, value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} must be finite and nonnegative, got {float(value)!r}\n"
        )
        assert calls == []

    @pytest.mark.parametrize("command", ["solve", "analyze", "sweep", "verify", "oracle"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1e-10"])
    def test_bad_tol_exit_one_before_solving(self, tmp_path, capsys, monkeypatch, command, value):
        path = write_json(tmp_path / "grid.json", quadratic_doc(2))
        pot_path = write_json(tmp_path / "pot.json", {"f": [0.0, 0.0], "g": [0.0, 0.0]})
        calls = []
        for name in ("solve", "solve_symmetric", "epsilon_sweep"):
            monkeypatch.setattr(qrot.cli, name, lambda *args: calls.append(args))
        extra = {
            "sweep": ["--eps-list", "1,0.1", "--delta", "0.2", "--out", str(tmp_path / "x.csv")],
            "verify": ["--potentials", pot_path],
        }.get(command, [])
        rc = main([command, path, *extra, f"--tol={value}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: tol_residual must be finite and positive\n"
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--tol", "nan"], "tol_residual must be finite and positive"),
            (["verify", "--potentials", "pot.json", "--tol", "nan"],
             "tol_residual must be finite and positive"),
            (["oracle", "--max-sweeps", "0"], "max_sweeps must be at least 1"),
            (["sweep", "--eps-list", "1,abc", "--delta", "0.1", "--out", "x.csv"],
             "--eps-list entry 'abc' is not a number"),
            (["sweep", "--eps-list", "1,0.1", "--delta", "0.1", "--out", "x.csv", "--tol", "0"],
             "tol_residual must be finite and positive"),
            (["solve", "--eps", "-1"], "nonpositive epsilon"),
            (["solve", "--eps", "nan"], "nonfinite epsilon"),
            (["verify", "--potentials", "pot.json", "--eps", "-1"], "nonpositive epsilon"),
            (["oracle", "--eps", "nan"], "nonfinite epsilon"),
            (["analyze", "--eps", "-1"], "nonpositive epsilon"),
            (["analyze", "--eps", "nan"], "nonfinite epsilon"),
            (["analyze", "--tol", "nan"], "tol_residual must be finite and positive"),
            (["analyze", "--max-sweeps", "0"], "max_sweeps must be at least 1"),
        ],
        ids=[
            "solve", "verify", "oracle", "sweep-eps-list", "sweep-tol", "solve-eps-negative",
            "solve-eps-nan", "verify-eps", "oracle-eps", "analyze-eps-negative",
            "analyze-eps-nan", "analyze-tol", "analyze-max-sweeps",
        ],
    )
    def test_flags_checked_before_loading(self, tmp_path, capsys, argv, message):
        command, *flags = argv
        rc = main([command, str(tmp_path / "missing.json"), *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_zero_tau_rel_accepted(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        # the zero densities sit on a zero threshold, which support_set flags
        with pytest.warns(UserWarning, match="support threshold"):
            assert main(["analyze", path, "--tau-rel", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["support"]["tau"] == 0.0


def solve_report(tmp_path, doc, *flags):
    """Write ``doc``, run ``qrot solve`` on it and return the report's path and document."""
    path = write_json(tmp_path / "inst.json", doc)
    out = tmp_path / "report.json"
    assert main(["solve", path, "--out", str(out), *flags]) == 0
    return out, json.loads(out.read_text())


class TestAnalysisContract:
    """The analysis read back as a consumer of ``analyze`` output reads it:
    keywords only, ``unmatched_*`` left at their defaults, ``a`` and ``dist``
    through ``decode_extended``."""

    @staticmethod
    def shifted(tmp_path, *flags):
        """The instance, its optimal density, and each sampled shift applied through
        the rebuilt decomposition and through that of ``components``."""
        report_path, report = solve_report(tmp_path, BLOCKS_DOC)
        out_path = tmp_path / "analysis.json"
        argv = ["analyze", str(report_path), "--samples", "4", *flags, "--out", str(out_path)]
        assert main(argv) == 0
        doc = json.loads(out_path.read_text())
        comp, poly = doc["components"], doc["polytope"]
        decomp = qrot.ComponentDecomposition(
            labels=np.asarray(comp["labels"], int),
            row_projections=tuple(tuple(r) for r in comp["row_projections"]),
            col_projections=tuple(tuple(c) for c in comp["col_projections"]),
            count=comp["count"],
        )
        pd = qrot.PolytopeDescription(
            n_components=poly["n_components"],
            a=decode_extended(poly["a"]),
            dist=decode_extended(poly["dist"]),
            dimension=poly["dimension"],
            rigid_pairs=tuple(tuple(r) for r in poly["rigid_pairs"]),
        )
        inst = instance_from_dict(report["instance"]).instance
        p = Potentials(*(np.asarray(report["potentials"][key], float) for key in "fg"))
        z_star = density_from_potentials(inst, p)
        own = qrot.components(qrot.support_set(z_star, tau=doc["support"]["tau"]))
        assert len(doc["sampled_shifts"]) == 4
        pairs = [
            (qrot.apply_shifts(p, decomp, alpha, inst.epsilon, pd),
             qrot.apply_shifts(p, own, alpha, inst.epsilon, pd))
            for alpha in doc["sampled_shifts"]
        ]
        return inst, z_star, pairs

    @pytest.mark.parametrize("flags", [[], ["--tau-rel", "0.9"]], ids=["default", "tau-rel-0.9"])
    def test_rebuilt_decomposition_shifts_bit_identically(self, tmp_path, flags):
        _, _, pairs = self.shifted(tmp_path, *flags)
        for q, want in pairs:
            assert q.f.tobytes() == want.f.tobytes() and q.g.tobytes() == want.g.tobytes()

    def test_sampled_shifts_are_potentials(self, tmp_path):
        inst, z_star, pairs = self.shifted(tmp_path)
        assert all(qrot.verify_potentials(inst, q, z_star) for q, _ in pairs)

    @pytest.mark.xfail(
        strict=True,
        reason="the polytope has no constraint between a component and an unmatched line,"
        " so one of four sampled shifts raises the density of cell (1, 3) from 0 to 1.265",
    )
    def test_sampled_shifts_are_potentials_with_unmatched_lines(self, tmp_path):
        inst, z_star, pairs = self.shifted(tmp_path, "--tau-rel", "0.9")
        assert all(qrot.verify_potentials(inst, q, z_star) for q, _ in pairs)


class TestSolveVerdict:
    """``qrot solve`` exits 0 only on a report whose stored potentials meet its
    own ``tol_residual``, so ``analyze`` accepts the report."""

    @pytest.mark.parametrize(
        "doc, flags",
        [
            pytest.param(instance_to_dict(tied_cost_instance(47)), ["--max-sweeps", "200"], id="tied-47"),
            pytest.param(instance_to_dict(tied_cost_instance(110)), ["--max-sweeps", "200"], id="tied-110"),
            pytest.param(REFS_DOC, [], id="refs"),
            pytest.param(BLOCKS_DOC, [], id="blocks"),
            pytest.param(offdiag_doc(1.0), [], id="offdiag"),
            pytest.param(quadratic_doc(40), ["--eps", "0.01"], id="quadratic"),
        ],
    )
    def test_analyze_accepts_every_solve_that_exits_zero(self, tmp_path, doc, flags):
        path = write_json(tmp_path / "inst.json", doc)
        report = tmp_path / "report.json"
        rc = main(["solve", path, "--out", str(report), *flags])
        assert rc in (0, 2)
        assert json.loads(report.read_text())["report"]["converged"] is (rc == 0)
        if rc == 0:
            assert main(["analyze", str(report), "--out", str(tmp_path / "a.json")]) == 0


class TestReportSchema:
    def test_schema2_drops_derived_fields(self, tmp_path):
        # schema 3 keeps out what schema 2 dropped, and the analysis too
        _, doc = solve_report(tmp_path, offdiag_doc(1.0))
        assert doc["schema_version"] == 3
        assert set(doc) == {
            "schema_version", "instance", "report", "potentials", "density", "provenance"
        }
        assert set(doc["provenance"]) == {"tol_residual", "max_sweeps"}
        assert doc["instance"]["schema_version"] == 1
        assert doc["instance"]["generator"] == {"kind": "indicator_offdiag", "gamma": 1.0}
        assert "cost" not in doc["instance"]
        assert set(doc["density"]) == {"z"}

    def test_dense_cost_instance_keeps_cost(self, tmp_path):
        inst = random_symmetric_instance(np.random.default_rng(0))
        _, doc = solve_report(tmp_path, instance_to_dict(inst))
        assert doc["instance"]["cost"] == inst.cost.tolist()
        assert "generator" not in doc["instance"]

    def test_analyze_same_bytes_on_schema1_and_schema2(self, tmp_path, capsys):
        # and on schema 3: analyze reads only the instance, potentials and provenance
        new_path, doc = solve_report(tmp_path, quadratic_doc(40), "--eps", "0.01")
        assert main(["analyze", str(new_path), "--samples", "2"]) == 0
        expected = capsys.readouterr().out
        schema2 = schema2_report(doc, json.loads(expected))
        for old in (schema2, schema1_report(schema2)):
            old_path = write_json(tmp_path / "old.json", old)
            assert main(["analyze", old_path, "--samples", "2"]) == 0
            assert capsys.readouterr().out == expected
        assert set(json.loads(expected)["support"]) == {"tau"}

    @pytest.mark.parametrize(
        "generator",
        [
            {"kind": "quadratic_1d", "x": [0, 0.1, 1 / 3, 2.0], "y": [1, 0.7, 0.2, 1e-300]},
            {"kind": "indicator_offdiag", "gamma": 0.1 + 0.2},
        ],
    )
    def test_generator_echo_reexpands_bit_identical(self, tmp_path, generator):
        doc = {"schema_version": 1, "mu": [0.25] * 4, "nu": [0.25] * 4, "generator": generator}
        _, report = solve_report(tmp_path, doc)
        echoed = instance_from_dict(report["instance"]).instance.cost
        assert echoed.tobytes() == instance_from_dict(doc).instance.cost.tobytes()

    def test_generator_echo_keeps_only_validated_fields(self, tmp_path):
        doc = quadratic_doc(3)
        doc["generator"].update(x=[0, 1, 2], note="extra", gamma=5)
        _, report = solve_report(tmp_path, doc)
        echo = report["instance"]["generator"]
        assert echo == {"kind": "quadratic_1d", "x": [0.0, 1.0, 2.0], "y": doc["generator"]["y"]}
        assert all(type(v) is float for v in echo["x"] + echo["y"])
        doc = offdiag_doc(1)
        doc["generator"]["x"] = [1.0]
        _, report = solve_report(tmp_path, doc)
        assert report["instance"]["generator"] == {"kind": "indicator_offdiag", "gamma": 1.0}
        assert type(report["instance"]["generator"]["gamma"]) is float

    def test_eps_echoes_effective_epsilon(self, tmp_path, capsys):
        # the stored potentials meet their marginals only at the effective epsilon
        path, doc = solve_report(tmp_path, quadratic_doc(8), "--eps", "0.05")
        assert doc["instance"]["epsilon"] == 0.05
        assert main(["analyze", str(path)]) == 0


def _drop(key, *path):
    def edit(doc):
        for name in path:
            doc = doc[name]
        del doc[key]

    return edit


def _set(value, *path):
    def edit(doc):
        for name in path[:-1]:
            doc = doc[name]
        doc[path[-1]] = value

    return edit


class TestMalformedReports:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_drop("instance"), "report has no field 'instance'"),
            (_drop("f", "potentials"), "report field 'potentials': missing field 'f'"),
            (_set(["a", "b"], "potentials", "f"), "report field 'potentials': field 'f' is not"),
            (_set([0.0, None], "potentials", "g"), "nonfinite potential at g[1]"),
            (_set([1.0, 2.0], "potentials"), "report field 'potentials' must be a JSON object"),
            (
                _set([[0.1, 0.2]], "potentials", "f"),
                "dimension mismatch: potentials have shapes (1, 2), (2,), expected (2,), (2,)",
            ),
            (_set("none", "provenance"), "report field 'provenance' must be a JSON object"),
            (_set("abc", "provenance", "tol_residual"), "report field 'provenance': field"),
            (_set(-1.0, "provenance", "tol_residual"), "report tol_residual must be finite"),
            (
                _set(True, "provenance", "tol_residual"),
                "report field 'provenance': field 'tol_residual' is not numeric",
            ),
            (_set(4, "schema_version"), "report schema_version must be one of (1, 2, 3), got 4"),
            (_drop("schema_version"), "report schema_version must be one of (1, 2, 3), got None"),
            (_set(5, "instance", "generator"), "generator must be a JSON object"),
            (_set("abc", "instance", "generator", "gamma"), "generator indicator_offdiag: field"),
            (
                _set(True, "instance", "generator", "gamma"),
                "generator indicator_offdiag: field 'gamma' is not numeric",
            ),
            (_set(["a", "b"], "instance", "mu"), "field 'mu' is not numeric"),
            (_set("false", "instance", "symmetric"), "field 'symmetric' must be true or false"),
            (
                _set("false", "potentials", "symmetric"),
                "report field 'potentials': field 'symmetric' must be true or false, got 'false'",
            ),
            # booleans and numeric strings, which float and numpy read as numbers
            pytest.param(
                _set([True, 0.5], "instance", "nu"), "field 'nu' is not numeric", id="nu-bool"
            ),
            pytest.param(
                _set(["0.5", "0.5"], "instance", "mu_tilde"),
                "field 'mu_tilde' is not numeric",
                id="mu-tilde-str",
            ),
            pytest.param(
                _set("1.0", "instance", "epsilon"),
                "epsilon must be a number, got '1.0'",
                id="epsilon-str",
            ),
            pytest.param(
                _set("1.0", "instance", "generator", "gamma"),
                "generator indicator_offdiag: field 'gamma' is not numeric",
                id="gamma-str",
            ),
            pytest.param(
                _set([0.0, True], "potentials", "g"),
                "report field 'potentials': field 'g' is not numeric",
                id="potentials-g-bool",
            ),
            pytest.param(
                _set(["0.0", "0.0"], "potentials", "f"),
                "report field 'potentials': field 'f' is not numeric",
                id="potentials-f-str",
            ),
            pytest.param(
                _set("1e-10", "provenance", "tol_residual"),
                "report field 'provenance': field 'tol_residual' is not numeric",
                id="tol-residual-str",
            ),
        ],
    )
    def test_analyze_exit_one(self, tmp_path, capsys, edit, message):
        path, doc = solve_report(tmp_path, offdiag_doc(1.0))
        edit(doc)
        write_json(path, doc)
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert captured.err.count("\n") == 1


def _instance_text(base=None, **fields):
    return json.dumps({**(base or offdiag_doc(1.0)), **fields})


def _quadratic_text(x, y):
    return _instance_text(quadratic_doc(len(y)), generator={"kind": "quadratic_1d", "x": x, "y": y})


BAD_JSON = "invalid JSON in {path}: "
BAD_SYMMETRIC = "field 'symmetric' must be true or false, got "


class TestMalformedInputFiles:
    @pytest.mark.parametrize(
        "command, text, message",
        [
            pytest.param("solve", '{"mu": [0.5,', BAD_JSON, id="instance-json"),
            pytest.param("analyze", '{"potentials": }', BAD_JSON, id="report-json"),
            pytest.param("verify", '{"f": [0.0', BAD_JSON, id="potentials-json"),
            pytest.param(
                "solve", "[1, 2]", "instance document must be a JSON object", id="instance-list"
            ),
            pytest.param(
                "analyze", '"report"', "instance document must be a JSON object", id="report-str"
            ),
            pytest.param(
                "verify",
                "[0.0]",
                "potentials file {path} must be a JSON object",
                id="potentials-list",
            ),
            pytest.param(
                "solve",
                _instance_text(generator={"kind": "cubic"}),
                "unknown generator kind 'cubic'",
                id="generator-kind",
            ),
            pytest.param(
                "solve",
                _quadratic_text([0, 1, 2], [0, 1, 2, 3]),
                "dimension mismatch: generator points have shapes (3,), (4,), expected (4,), (4,)",
                id="quadratic-points-length",
            ),
            pytest.param(
                "solve",
                _quadratic_text([1e200, 0], [0, 1]),
                "generator quadratic_1d: points give a nonfinite squared distance",
                id="quadratic-points-overflow",
            ),
            pytest.param(
                "solve",
                _instance_text(nu=[0.25] * 4),
                "dimension mismatch: indicator_offdiag needs square instances, got (2, 4)",
                id="offdiag-not-square",
            ),
            pytest.param(
                "solve", _instance_text(mu=None), "mu must be a nonempty 1-d array", id="mu-null"
            ),
            pytest.param(
                "solve", _instance_text(mu=[]), "mu must be a nonempty 1-d array", id="mu-empty"
            ),
            pytest.param(
                "solve",
                _instance_text(mu_tilde=[1.0]),
                "dimension mismatch: mu_tilde has length 1, expected 2",
                id="mu-tilde-length",
            ),
            pytest.param(
                "solve",
                _instance_text(epsilon="abc"),
                "epsilon must be a number, got 'abc'",
                id="epsilon",
            ),
            pytest.param(
                "solve",
                _instance_text(epsilon=True),
                "epsilon must be a number, got True",
                id="epsilon-bool",
            ),
            pytest.param(
                "solve", _instance_text(epsilon=math.inf), "nonfinite epsilon", id="epsilon-inf"
            ),
            pytest.param(
                "solve",
                _instance_text(generator={"kind": "indicator_offdiag", "gamma": True}),
                "generator indicator_offdiag: field 'gamma' is not numeric",
                id="gamma-bool",
            ),
            pytest.param(
                "solve",
                _instance_text(symmetric="false"),
                BAD_SYMMETRIC + "'false'",
                id="instance-symmetric-str",
            ),
            pytest.param(
                "solve",
                _instance_text(symmetric=None),
                BAD_SYMMETRIC + "None",
                id="instance-symmetric-null",
            ),
            pytest.param(
                "verify",
                json.dumps({"f": [0.0, 0.0], "g": [0.0, 0.0], "symmetric": 1}),
                "potentials file {path}: " + BAD_SYMMETRIC + "1",
                id="potentials-symmetric-int",
            ),
            # booleans and numeric strings, which float and numpy read as numbers
            pytest.param(
                "solve", _instance_text(mu=[True, 0.5]), "field 'mu' is not numeric", id="mu-bool"
            ),
            pytest.param(
                "solve",
                _instance_text(mu=["0.5", "0.5"]),
                "field 'mu' is not numeric",
                id="mu-str",
            ),
            pytest.param(
                "solve",
                _instance_text(epsilon="1.0"),
                "epsilon must be a number, got '1.0'",
                id="epsilon-str",
            ),
            pytest.param(
                "solve",
                _instance_text(generator={"kind": "indicator_offdiag", "gamma": "1.0"}),
                "generator indicator_offdiag: field 'gamma' is not numeric",
                id="gamma-str",
            ),
            pytest.param(
                "solve",
                _instance_text(
                    {"schema_version": 1, "mu": [0.5, 0.5], "nu": [0.5, 0.5]},
                    cost=[[0.0, True], [1.0, 0.0]],
                ),
                "field 'cost' is not numeric",
                id="cost-bool",
            ),
            pytest.param(
                "solve",
                _instance_text(
                    {"schema_version": 1, "mu": [0.5, 0.5], "nu": [0.5, 0.5]},
                    cost=[["0", "1"], ["1", "0"]],
                ),
                "field 'cost' is not numeric",
                id="cost-str",
            ),
            pytest.param(
                "solve",
                _quadratic_text([0.0, True, 2.0, 3.0], [0, 1, 2, 3]),
                "generator quadratic_1d: field 'x' is not numeric",
                id="quadratic-points-bool",
            ),
            pytest.param(
                "solve",
                _quadratic_text([0, 1, 2, 3], ["0", "1", "2", "3"]),
                "generator quadratic_1d: field 'y' is not numeric",
                id="quadratic-points-str",
            ),
            pytest.param(
                "verify",
                json.dumps({"f": [True, 0.0], "g": [0.0, 0.0]}),
                "potentials file {path}: field 'f' is not numeric",
                id="potentials-f-bool",
            ),
            pytest.param(
                "verify",
                json.dumps({"f": [0.0, 0.0], "g": ["0.0", "0.0"]}),
                "potentials file {path}: field 'g' is not numeric",
                id="potentials-g-str",
            ),
        ],
    )
    def test_exit_one(self, tmp_path, capsys, monkeypatch, command, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        calls = []
        for name in ("solve", "solve_symmetric"):
            monkeypatch.setattr(qrot.cli, name, lambda *args: calls.append(args))
        argv = [command, str(path)]
        if command == "verify":
            inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
            argv = ["verify", inst_path, "--potentials", str(path)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(path=path))
        assert captured.err.count("\n") == 1
        assert calls == []


class TestParserReuse:
    """``main`` reuses one parser per process; consecutive calls share no state."""

    def test_samples_do_not_carry_over(self, tmp_path):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        report, out = str(tmp_path / "report.json"), tmp_path / "analysis.json"
        assert main(["solve", inst_path, "--out", report]) == 0
        assert main(["analyze", report, "--samples", "3", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["sampled_shifts"]) == 3
        assert main(["analyze", report, "--out", str(out)]) == 0
        assert "sampled_shifts" not in json.loads(out.read_text())

    def test_valid_call_after_usage_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["solve", path]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["converged"] is True


# five ops of one process on a 200 x 200 instance, after a warm-up op; prints
# the minor page faults per op
FAULT_CHECK = """
import resource, sys
from qrot.cli import main
argv = ["solve", sys.argv[1], "--out", sys.argv[2]]
if main(argv) != 0:
    sys.exit("warm-up solve failed")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if any(main(argv) != 0 for _ in range(5)):
    sys.exit("solve failed")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


class TestKeepHeap:
    """``main`` has glibc keep the memory the solver frees (``cli._keep_heap``)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt settings")
    def test_ops_do_not_fault(self, tmp_path):
        doc = dict(quadratic_doc(200), epsilon=0.01)
        path = write_json(tmp_path / "inst.json", doc)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qrot.cli.__file__)))
        argv = [sys.executable, "-c", FAULT_CHECK, path, str(tmp_path / "report.json")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        # glibc's defaults map and unmap the solver's 320 KB arrays: about 1,400 per op
        assert float(done.stdout) < 100

    @pytest.mark.parametrize("error", [OSError, AttributeError])
    def test_solves_without_mallopt(self, tmp_path, monkeypatch, error):
        calls = []

        def no_mallopt(name):
            calls.append(name)
            if error is OSError:
                raise OSError("no C library")
            return object()  # a library without mallopt

        monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
        qrot.cli._keep_heap.cache_clear()
        try:
            path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
            assert main(["solve", path, "--out", str(tmp_path / "report.json")]) == 0
        finally:
            qrot.cli._keep_heap.cache_clear()
        assert calls == ([None] if sys.platform.startswith("linux") else [])


class TestBlockReportRoundTrip:
    def test_wide_weight_block_instance_solves_and_analyzes(self, tmp_path, capsys):
        # +-50% weights at eps = 1/n: with sweeps alone the solve left density
        # just below the support threshold on between-block cells, and
        # `qrot solve` exited 2 on their negative slack, writing no report
        inst = block_instance(np.random.default_rng(0), 80, spread=0.5)
        path = write_json(tmp_path / "inst.json", instance_to_dict(inst))
        report_path = tmp_path / "report.json"
        assert main(["solve", path, "--out", str(report_path)]) == 0
        assert main(["analyze", str(report_path), "--samples", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["polytope"]["dimension"] == doc["components"]["count"] == 80


class TestSubThresholdDensity:
    def test_density_below_tau_is_off_support(self, tmp_path, capsys):
        # the exact optimum has z[0,1] = 1e-8, below tau = 1e-8 * max z, so the
        # cell is off the support and its slack -1e-8 is feasible up to tau
        doc = {
            "schema_version": 1,
            "mu": [0.50000000125, 0.49999999875],
            "nu": [0.49999999875, 0.50000000125],
            "mu_tilde": [0.5, 0.5],
            "nu_tilde": [0.5, 0.5],
            "cost": [[0.0, 1.999999985], [3.99999999, 0.0]],
        }
        report_path, report = solve_report(tmp_path, doc)
        assert main(["analyze", str(report_path), "--samples", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["components"]["count"] == 2
        assert out["polytope"]["dimension"] == 2
        inst = instance_from_dict(report["instance"]).instance
        f, g = (np.array(report["potentials"][key]) for key in "fg")
        z = np.array(report["density"]["z"])
        labels = np.array(out["components"]["labels"])
        row_label, col_label = labels.max(axis=1), labels.max(axis=0)
        for alpha in map(np.array, out["sampled_shifts"]):
            shifted = Potentials(
                f + inst.epsilon * alpha[row_label], g - inst.epsilon * alpha[col_label]
            )
            diff = density_from_potentials(inst, shifted) - z
            assert np.max(np.abs(diff)) <= out["support"]["tau"]


class TestOwnSupport:
    def test_unconverged_tiny_epsilon_solve_writes_report(self, tmp_path, capsys):
        # the polytope's slack is the negated density of the reported
        # potentials, so an unconverged solve still gets a consistent report
        inst = tiny_eps_symmetric_instance()
        path = write_json(tmp_path / "inst.json", instance_to_dict(inst, symmetric=True))
        out = tmp_path / "report.json"
        rc = main(["solve", path, "--eps", "1e-12", "--max-sweeps", "300", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert doc["report"]["converged"] is False
        assert doc["report"]["iterations"] == 300


class TestVerifyCommand:
    def test_family_member_accepted(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(
            tmp_path / "pot.json", {"f": [0.3, 0.8], "g": [1.7, 1.2]}
        )
        rc = main(["verify", inst_path, "--potentials", pot_path])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["accepted"] is True

    def test_violating_pair_exit_three(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(
            tmp_path / "pot.json", {"f": [0.0, 1.1], "g": [2.0, 0.9]}
        )
        rc = main(["verify", inst_path, "--potentials", pot_path])
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["accepted"] is False

    def test_identity_shift_accepted(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(
            tmp_path / "pot.json", {"f": [5.0, 5.0], "g": [-3.0, -3.0]}
        )
        rc = main(["verify", inst_path, "--potentials", pot_path])
        assert rc == 0

    def test_unconverged_solve_exit_two(self, tmp_path, capsys):
        # the converged pair is the optimum, yet a solve cut at one sweep rejects it
        report_path, report = solve_report(tmp_path, REFS_DOC)
        pot = {key: report["potentials"][key] for key in ("f", "g")}
        pot_path = write_json(tmp_path / "pot.json", pot)
        inst_path = str(tmp_path / "inst.json")
        rc = main(["verify", inst_path, "--potentials", pot_path, "--max-sweeps", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.out) == {"accepted": False, "solver_converged": False}
        assert captured.err == ""
        assert main(["verify", inst_path, "--potentials", pot_path]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "accepted": True, "solver_converged": True
        }

    def test_bad_potentials_file_exit_one(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(tmp_path / "pot.json", {"f": [0.0, 0.0]})
        rc = main(["verify", inst_path, "--potentials", pot_path])
        assert rc == 1

    def test_nested_potentials_exit_one(self, tmp_path, capsys):
        # the right number of entries, but not a vector: no verdict on broadcast cells
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(tmp_path / "pot.json", {"f": [[0.1, 0.2]], "g": [0.1, 0.2]})
        rc = main(["verify", inst_path, "--potentials", pot_path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "error: dimension mismatch: potentials have shapes (1, 2), (2,), expected (2,), (2,)\n"
        )

    def test_non_numeric_potentials_exit_one(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(tmp_path / "pot.json", {"f": ["a", "b"], "g": [0.0, 0.0]})
        rc = main(["verify", inst_path, "--potentials", pot_path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            f"error: potentials file {pot_path}: field 'f' is not numeric\n"
        )


class TestOracleCommand:
    def test_agreement(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["oracle", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["max_density_diff"] <= 1e-6

    def test_projection_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        monkeypatch.setattr(qrot.cli, "project", lambda inst: project(inst, max_iter=1))
        rc = main(["oracle", path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: projection did not converge")


@pytest.mark.parametrize("module", ["qrot", "qrot.cli"])
def test_python_m_entry_points(tmp_path, module):
    src = os.path.dirname(os.path.dirname(qrot.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", module, "solve", str(tmp_path / "missing.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1
    doc = instance_to_dict(random_symmetric_instance(np.random.default_rng(0)), symmetric=True)
    argv[-1:] = [write_json(tmp_path / "inst.json", doc), "--max-sweeps", "1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert json.loads(done.stdout)["report"]["converged"] is False
