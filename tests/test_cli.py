import errno
import json
import math
import os
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
    random_symmetric_instance,
    schema1_report,
    schema2_report,
    tiny_eps_symmetric_instance,
)


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

    def test_normalization_modes(self, tmp_path, capsys):
        # the three modes shift the same optimal pair, so the density is the same
        path = write_json(tmp_path / "inst.json", quadratic_doc(12))
        pairs = {}
        for mode in ("anchor_first_component_zero", "mean_zero_f", "none"):
            assert main(["solve", path, "--eps", "0.05", "--normalization", mode]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["provenance"]["normalization"] == mode
            pairs[mode] = Potentials(*(np.array(doc["potentials"][key]) for key in "fg"))
        assert pairs["anchor_first_component_zero"].f[0] == 0.0
        assert abs(np.mean(pairs["mean_zero_f"].f)) <= 1e-12
        inst = instance_from_dict(doc["instance"]).instance
        z = density_from_potentials(inst, pairs["none"])
        for p in pairs.values():
            np.testing.assert_allclose(density_from_potentials(inst, p), z, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_normalization_rejected_on_self_transport(self, tmp_path, capsys, monkeypatch, where):
        # f = g = (f + g) / 2 cancels any shift, so the flag would be ignored
        inst = random_symmetric_instance(np.random.default_rng(0))
        path = write_json(tmp_path / "inst.json", instance_to_dict(inst, symmetric=where == "file"))
        calls = []
        monkeypatch.setattr(qrot.cli, "solve_symmetric", lambda *args: calls.append(args))
        flags = ["--symmetric"] if where == "flag" else []
        out = tmp_path / "report.json"
        rc = main(["solve", path, *flags, "--normalization", "none", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            "error: a self-transport solve takes no --normalization:"
            " the shift cancels in (f + g) / 2\n"
        )
        assert calls == []
        assert not out.exists()

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

    # the density itself overflows to -inf off the support, which numpy warns about
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_slack_exit_one(self, tmp_path, capsys):
        # off the diagonal, (f + g - cost) / epsilon is about -1e310: no float holds the slack
        doc = {"schema_version": 1, "mu": [0.5, 0.5], "nu": [0.5, 0.5], "epsilon": 1e-10,
               "cost": [[0.0, 1e300], [1e300, 0.0]]}
        rc = main(["analyze", write_json(tmp_path / "inst.json", doc)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "error: slack a[0,1] is not finite: (f + g - cost) / epsilon overflows"
            " at epsilon 1e-10\n"
        )

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
        "flag", [["--eps", "0.5"], ["--tol", "1e-6"], ["--max-sweeps", "0"], ["--symmetric"]]
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
            pytest.param("sweep", ["--eps", "0.1"], id="sweep-eps"),
            pytest.param("sweep", ["--symmetric"], id="sweep-symmetric"),
        ],
    )
    def test_seed_unrecognized(self, tmp_path, capsys, command, flag):
        # only analyze draws random numbers or builds the support, so only it
        # takes --seed and --tau-rel; only solve writes potentials, so only it
        # takes --normalization; sweep takes its epsilons from --eps-list and
        # its mode from the instance
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


class TestReportSchema:
    def test_schema2_drops_derived_fields(self, tmp_path):
        # schema 3 keeps out what schema 2 dropped, and the analysis too
        _, doc = solve_report(tmp_path, offdiag_doc(1.0))
        assert doc["schema_version"] == 3
        assert set(doc) == {
            "schema_version", "instance", "report", "potentials", "density", "provenance"
        }
        assert set(doc["provenance"]) == {"tol_residual", "max_sweeps", "normalization"}
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
            (_set("none", "provenance"), "report field 'provenance' must be a JSON object"),
            (_set("abc", "provenance", "tol_residual"), "report field 'provenance': field"),
            (_set(-1.0, "provenance", "tol_residual"), "report tol_residual must be finite"),
            (_set(4, "schema_version"), "report schema_version must be one of (1, 2, 3), got 4"),
            (_drop("schema_version"), "report schema_version must be one of (1, 2, 3), got None"),
            (_set(5, "instance", "generator"), "generator must be a JSON object"),
            (_set("abc", "instance", "generator", "gamma"), "generator indicator_offdiag: field"),
            (_set(["a", "b"], "instance", "mu"), "field 'mu' is not numeric"),
            (_set("false", "instance", "symmetric"), "field 'symmetric' must be true or false"),
            (
                _set("false", "potentials", "symmetric"),
                "report field 'potentials': field 'symmetric' must be true or false, got 'false'",
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
                "solve", _instance_text(epsilon=math.inf), "nonfinite epsilon", id="epsilon-inf"
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

    def test_bad_potentials_file_exit_one(self, tmp_path, capsys):
        inst_path = write_json(tmp_path / "inst.json", offdiag_doc(1.0))
        pot_path = write_json(tmp_path / "pot.json", {"f": [0.0, 0.0]})
        rc = main(["verify", inst_path, "--potentials", pot_path])
        assert rc == 1

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
