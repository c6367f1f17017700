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
from conftest import block_instance, random_symmetric_instance


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

    def test_extended_matrix_encoding_matches_entrywise_loop(self):
        rng = np.random.default_rng(2)
        assert encode_extended(np.zeros((0, 0))) == []
        for shape in ((1, 1), (5, 5), (3, 40), (40, 40)):
            a = rng.normal(size=shape)
            a[rng.random(shape) < 0.2] = math.inf
            a[rng.random(shape) < 0.05] = -math.inf
            loop = [["inf" if math.isinf(v) else float(v) for v in row] for row in a]
            encoded = encode_extended(a)
            assert encoded == loop
            assert all(type(v) in (float, str) for row in encoded for v in row)
            # any infinity is written as "inf", so decoding gives +inf
            np.testing.assert_array_equal(decode_extended(encoded), np.where(np.isinf(a), math.inf, a))

    @pytest.mark.parametrize("entry", [None, "abc", "nan"])
    def test_extended_matrix_rejects_non_numbers(self, entry):
        with pytest.raises(ValidationError, match="invalid extended matrix"):
            decode_extended([[0.0, entry], [1.0, 0.0]])


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

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        monkeypatch.setenv("QROT_SEED", "9")
        main(["analyze", path, "--samples", "3", "--seed", "1234"])
        env_doc = json.loads(capsys.readouterr().out)
        monkeypatch.delenv("QROT_SEED")
        main(["analyze", path, "--samples", "3", "--seed", "9"])
        flag_doc = json.loads(capsys.readouterr().out)
        assert env_doc["sampled_shifts"] == flag_doc["sampled_shifts"]

    def test_negative_seed_exit_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["analyze", path, "--samples", "1", "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --seed must be nonnegative")
        assert captured.err.count("\n") == 1

    def test_non_integer_env_seed_exit_one(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        monkeypatch.setenv("QROT_SEED", "abc")
        rc = main(["analyze", path, "--samples", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: QROT_SEED must be an integer")
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

    def test_requires_coordinates(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        rc = main(["sweep", path, "--eps-list", "1,0.1", "--delta", "0.1", "--out", "x.csv"])
        assert rc == 1
        assert "quadratic_1d" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "verify", "oracle"])
    def test_seed_unrecognized(self, tmp_path, capsys, command):
        # only solve and analyze draw random numbers, so only they take --seed
        path = write_json(tmp_path / "grid.json", quadratic_doc(8))
        extra = {
            "sweep": ["--eps-list", "1,0.1", "--delta", "0.2", "--out", str(tmp_path / "x.csv")],
            "verify": ["--potentials", str(tmp_path / "pair.json")],
            "oracle": [],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, path, *extra, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps-list", "1,abc"], "error: --eps-list entry 'abc' is not a number"),
            (["--eps-list", ","], "error: --eps-list names no epsilon"),
            (["--delta", "nan"], "error: --delta must be finite and nonnegative, got nan"),
            (["--delta", "inf"], "error: --delta must be finite and nonnegative, got inf"),
            (["--delta", "-0.1"], "error: --delta must be finite and nonnegative, got -0.1"),
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
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_tau_rel_exit_one_before_solving(
        self, tmp_path, capsys, monkeypatch, command, value
    ):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        calls = []
        monkeypatch.setattr(qrot.cli, "solve", lambda *args: calls.append(args))
        rc = main([command, path, "--tau-rel", value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: --tau-rel must be finite and nonnegative, got {float(value)!r}\n"
        )
        assert calls == []

    def test_zero_tau_rel_accepted(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        # the zero densities sit on a zero threshold, which support_set flags
        with pytest.warns(UserWarning, match="support threshold"):
            assert main(["solve", path, "--tau-rel", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["support"]["tau"] == 0.0


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
