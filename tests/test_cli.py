import errno
import json
import math

import numpy as np
import pytest

import qrot.cli
import qrot.io
import qrot.solver
from qrot.cli import main
from qrot.io import (
    canonical_json,
    decode_extended,
    encode_extended,
    instance_from_dict,
    instance_to_dict,
)
from qrot import PotentialConsistencyError, Potentials, ValidationError
from qrot.projection import project


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def offdiag_doc(gamma=1.0, eps=1.0):
    return {
        "schema_version": 1,
        "mu": [0.5, 0.5],
        "nu": [0.5, 0.5],
        "generator": {"kind": "indicator_offdiag", "gamma": gamma},
        "epsilon": eps,
    }


def quadratic_doc(n=8):
    xs = np.linspace(0, 1, n).tolist()
    w = [1.0 / n] * n
    return {
        "schema_version": 1,
        "mu": w,
        "nu": w,
        "generator": {"kind": "quadratic_1d", "x": xs, "y": xs},
        "epsilon": 1.0,
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

    def test_roundtrip_through_dict(self):
        loaded = instance_from_dict(offdiag_doc(1.0))
        again = instance_from_dict(instance_to_dict(loaded.instance))
        np.testing.assert_array_equal(again.instance.cost, loaded.instance.cost)

    def test_extended_matrix_encoding(self):
        a = np.array([[0.0, math.inf], [1.25, 0.0]])
        encoded = encode_extended(a)
        assert encoded[0][1] == "inf"
        np.testing.assert_array_equal(decode_extended(encoded), a)


class TestSolveCommand:
    def test_solve_writes_full_report(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["solve", path])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert abs(doc["report"]["duality_gap"]) <= 1e-10
        assert doc["support"]["mask"] == [[1, 0], [0, 1]]
        assert doc["polytope"]["a"][0][1] == pytest.approx(1.0, abs=1e-9)
        assert doc["polytope"]["dimension"] == 2

    def test_malformed_weights_exit_one(self, tmp_path, capsys):
        doc = offdiag_doc()
        doc["mu"] = [0.5, 0.0]
        path = write_json(tmp_path / "bad.json", doc)
        rc = main(["solve", path])
        err = capsys.readouterr().err
        assert rc == 1
        assert "nonpositive weight at mu[1]" in err

    def test_sweep_budget_exhaustion_exit_two(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "mu": [0.5, 0.5],
            "nu": [0.5, 0.5],
            "cost": ((2.0 + 1.0) * np.eye(2)).tolist(),
            "symmetric": True,
        }
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

    def test_inconsistent_potentials_exit_two(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))

        def inconsistent(*args):
            raise PotentialConsistencyError("a[0,1] = -7.4e-08 < 0")

        monkeypatch.setattr(qrot.cli, "compute_polytope", inconsistent)
        rc = main(["solve", path])
        assert rc == 2
        assert capsys.readouterr().err == "error: a[0,1] = -7.4e-08 < 0\n"

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
        assert main(["solve", path, "--seed", "5", "--out", str(out_a)]) == 0
        assert main(["solve", path, "--seed", "5", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

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

    def test_analyze_full_support(self, tmp_path, capsys):
        doc_in = offdiag_doc(-1.0)  # cost eta = 1 off the diagonal
        path = write_json(tmp_path / "inst.json", doc_in)
        rc = main(["analyze", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["components"]["count"] == 1
        assert doc["polytope"]["dimension"] == 1

    def test_analyze_report_file(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        report_path = tmp_path / "report.json"
        assert main(["solve", inst_path, "--out", str(report_path)]) == 0
        rc = main(["analyze", str(report_path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["components"]["count"] == 2

    def test_sampled_shifts_seeded(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["analyze", path, "--samples", "3", "--seed", "9"])
        first = json.loads(capsys.readouterr().out)
        assert rc == 0
        main(["analyze", path, "--samples", "3", "--seed", "9"])
        second = json.loads(capsys.readouterr().out)
        assert first["sampled_shifts"] == second["sampled_shifts"]

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        monkeypatch.setenv("QROT_SEED", "9")
        main(["analyze", path, "--samples", "3", "--seed", "1234"])
        env_doc = json.loads(capsys.readouterr().out)
        monkeypatch.delenv("QROT_SEED")
        main(["analyze", path, "--samples", "3", "--seed", "9"])
        flag_doc = json.loads(capsys.readouterr().out)
        assert env_doc["sampled_shifts"] == flag_doc["sampled_shifts"]


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

    def test_requires_coordinates(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["sweep", path, "--eps-list", "1,0.1", "--delta", "0.1", "--out", "x.csv"])
        assert rc == 1
        assert "quadratic_1d" in capsys.readouterr().err


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

    def test_bad_potentials_file_exit_one(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(tmp_path / "pot.json", {"f": [0.0, 0.0]})
        rc = main(["verify", inst_path, "--potentials", pot_path])
        assert rc == 1


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
