"""Command-line interface: subcommands, exit codes, determinism, round-trips."""

import argparse
import inspect
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import cli_json
from tensorspec import cli
from tensorspec.cli import main
from tensorspec.golden import counterexample_222, rank3_multilinear22
from tensorspec.serialize import (
    cp_from_dict,
    save_tensor,
    tensor_from_dict,
    tucker_from_dict,
    tucker_to_dict,
)
from tensorspec.decomp import TuckerDecomposition, cp_als, odeco_decompose
from tensorspec.spectra import find_eigenpairs, find_singular_tuples
from tensorspec.tensor import DenseTensor, frobenius_norm


@pytest.fixture()
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    save_tensor(counterexample_222(), path)
    return str(path)


@pytest.fixture()
def eight1_path(tmp_path):
    path = tmp_path / "eight1.json"
    save_tensor(rank3_multilinear22(0), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestInfo:
    def test_golden(self, capsys, golden_path):
        code, out = run(capsys, ["info", golden_path])
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 3
        assert obj["shape"] == [2, 2, 2]
        assert obj["symmetric"] is False
        assert obj["frobenius_norm"] == pytest.approx(math.sqrt(20.0), rel=1e-11)

    def test_table(self, capsys, golden_path):
        code, out = run(capsys, ["info", golden_path, "--format", "table"])
        assert code == 0
        assert "symmetric: false" in out


OVERFLOW_WARNING = "warning: a result exceeds the float maximum; it is written as null\n"
NOT_FINITE_ERROR = "error: tensor entries must be finite (no NaN/Inf, and no computed entry past the float maximum)\n"
NOT_ISOLATED = "warning: the solutions form a continuous family, not isolated; no records are returned\n"


class TestEig:
    def test_mode3_z_pairs(self, capsys, golden_path):
        code, out = run(capsys, ["eig", "--variant", "z", "--mode", "3", golden_path])
        assert code == 0
        pairs = json.loads(out)["pairs"]
        lams = [p["lambda"] for p in pairs]
        assert any(abs(l - 9 / math.sqrt(5)) <= 1e-8 for l in lams)
        assert any(abs(l + 9 / math.sqrt(5)) <= 1e-8 for l in lams)
        pos = next(p for p in pairs if abs(p["lambda"] - 9 / math.sqrt(5)) <= 1e-8)
        want = [1 / math.sqrt(5), 2 / math.sqrt(5)]
        assert np.max(np.abs(np.array(pos["vector"]) - want)) <= 1e-8

    def test_mode1_h_lambda_set(self, capsys, golden_path):
        code, out = run(capsys, ["eig", "--variant", "h", "--mode", "1", golden_path])
        assert code == 0
        lams = {round(p["lambda"], 6) for p in json.loads(out)["pairs"]}
        assert lams == {6.0, 0.0}

    def test_zero_tensor_is_empty(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        save_tensor(DenseTensor.zeros([2, 2, 2]), path)
        code = main(["eig", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["pairs"] == []
        assert captured.err == NOT_ISOLATED

    def test_library_warning_is_one_cli_line(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        save_tensor(DenseTensor.zeros([2, 2, 2]), path)
        for argv, key in ((["eig", str(path)], "pairs"), (["svd", str(path)], "tuples"), (["eig", str(path)], "pairs")):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.out == "{\n  \"%s\": []\n}\n" % key
            assert captured.err == NOT_ISOLATED

    def test_order1_is_4(self, capsys, tmp_path):
        path = tmp_path / "vector.json"
        save_tensor(DenseTensor(np.arange(1.0, 8.0)), path)
        assert main(["eig", str(path), "--variant", "h"]) == 4
        err = capsys.readouterr().err
        assert err == "error: eigenpairs need a tensor of order >= 2, got order 1\n"

    def test_deterministic_bytes(self, capsys, golden_path):
        _, out1 = run(capsys, ["eig", "--variant", "z", "--mode", "1", "--seed", "0", golden_path])
        _, out2 = run(capsys, ["eig", "--variant", "z", "--mode", "1", "--seed", "0", golden_path])
        assert out1 == out2

    def test_twelve_significant_digits(self, capsys, golden_path):
        _, out = run(capsys, ["eig", "--variant", "z", "--mode", "3", golden_path])
        top = max(json.loads(out)["pairs"], key=lambda p: p["lambda"])
        assert top["lambda"] == float(f"{9 / math.sqrt(5):.12g}")


class TestSvd:
    def test_l2(self, capsys, golden_path):
        code, out = run(capsys, ["svd", "--p", "2", golden_path])
        assert code == 0
        tuples = json.loads(out)["tuples"]
        assert max(abs(t["sigma"]) for t in tuples) == pytest.approx(2 * math.sqrt(5), rel=1e-9)

    def test_lO(self, capsys, golden_path):
        code, out = run(capsys, ["svd", "--p", "O", golden_path])
        assert code == 0
        assert all(t["residual"] <= 1e-10 for t in json.loads(out)["tuples"])

    def test_lO_odd_order(self, capsys, tmp_path):
        arr = np.random.default_rng(3).normal(size=(3, 3, 3))
        path = tmp_path / "gen3.json"
        save_tensor(DenseTensor(arr), path)
        code, out = run(capsys, ["svd", "--p", "O", str(path)])
        assert code == 0
        tuples = json.loads(out)["tuples"]
        assert tuples and all(t["residual"] <= 1e-10 * np.max(np.abs(arr)) for t in tuples)

    def test_order1_is_4(self, capsys, tmp_path):
        path = tmp_path / "vector.json"
        save_tensor(DenseTensor([1.0, 2.0, 3.0]), path)
        assert main(["svd", str(path)]) == 4
        err = capsys.readouterr().err
        assert "order >= 2" in err and "Traceback" not in err


class TestDecompCommands:
    def test_mlrank(self, capsys, eight1_path):
        code, out = run(capsys, ["mlrank", eight1_path])
        assert code == 0
        assert json.loads(out)["multilinear_rank"] == [2, 2, 2]

    def test_mlrank_near_the_float_maximum(self, capsys, tmp_path):
        # the unfolding SVD used not to converge, and a valid file exited 4
        path = tmp_path / "big.json"
        save_tensor(DenseTensor(np.full((2, 2, 2), 1e308)), path)
        code, out = run(capsys, ["mlrank", str(path)])
        assert code == 0
        assert json.loads(out)["multilinear_rank"] == [1, 1, 1]

    def test_info_norm_past_the_float_maximum_is_null(self, capsys, tmp_path):
        # the norm 2.8e308 of finite entries used to print as Infinity, not JSON,
        # after a numpy overflow warning
        path = tmp_path / "big.json"
        save_tensor(DenseTensor(np.full((2, 2, 2), 1e308)), path)

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        assert main(["info", str(path)]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out, parse_constant=reject)
        assert obj["frobenius_norm"] is None and obj["multilinear_rank"] == [1, 1, 1]
        assert captured.err == OVERFLOW_WARNING
        assert main(["info", str(path), "--format", "table"]) == 0
        assert "frobenius_norm: inf\n" in capsys.readouterr().out

    def test_hosvd_near_the_float_maximum(self, capsys, tmp_path):
        # 6e307 entries used to exit 4 on an overflow; at 1e308 the core itself is past the float maximum
        path = tmp_path / "big.json"
        save_tensor(DenseTensor(np.full((2, 2, 2), 6e307)), path)
        code, out = run(capsys, ["hosvd", str(path), "--ranks", "1,1,1"])
        assert code == 0
        assert abs(tucker_from_dict(json.loads(out)).core[1, 1, 1]) == pytest.approx(math.sqrt(8.0) * 6e307, rel=1e-11)
        save_tensor(DenseTensor(np.full((2, 2, 2), 1e308)), path)
        assert main(["hosvd", str(path)]) == 4
        assert capsys.readouterr().err == NOT_FINITE_ERROR

    def test_cp_roundtrips(self, capsys, eight1_path):
        code, out = run(capsys, ["cp", eight1_path, "--rank", "3"])
        assert code == 0
        obj = json.loads(out)
        cp = cp_from_dict(obj)
        assert cp.rank == 3
        assert obj["relative_error"] <= 1e-6

    def test_hosvd_roundtrips(self, capsys, eight1_path):
        code, out = run(capsys, ["hosvd", eight1_path, "--ranks", "2,2,2"])
        assert code == 0
        obj = json.loads(out)
        tk = tucker_from_dict(obj)
        assert tk.core.dims == (2, 2, 2)
        assert obj["reconstruction_error"] <= 1e-9

    def test_hosvd_tall_input_keeps_full_ranks(self, capsys, tmp_path):
        # mode 1 of 10x2x2 unfolds to 10x4; the default ranks are the dims
        t = DenseTensor(np.random.default_rng(12).normal(size=(10, 2, 2)))
        path = tmp_path / "tall.json"
        save_tensor(t, path)
        code, out = run(capsys, ["hosvd", str(path)])
        assert code == 0
        obj = json.loads(out)
        tk = tucker_from_dict(obj)
        assert list(tk.core.dims) == [10, 2, 2]
        for f in tk.factors:
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-10
        assert obj["reconstruction_error"] <= 1e-12 * frobenius_norm(t)

    def test_tucker_evaluates(self, capsys, tmp_path, eight1_path):
        _, hosvd_out = run(capsys, ["hosvd", eight1_path, "--ranks", "2,2,2"])
        tk_path = tmp_path / "tk.json"
        tk_path.write_text(hosvd_out)
        code, out = run(capsys, ["tucker", str(tk_path)])
        assert code == 0
        t = tensor_from_dict(json.loads(out))
        want = rank3_multilinear22(0)
        assert np.max(np.abs(t.to_array() - want.to_array())) <= 1e-9

    def test_odeco(self, capsys, tmp_path):
        from tensorspec.tensor import outer

        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        t = 2.0 * outer(e1, e1, e1) + outer(e2, e2, e2)
        path = tmp_path / "odeco.json"
        save_tensor(t, path)
        code, out = run(capsys, ["odeco", str(path)])
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "ok"
        assert sorted(round(abs(w), 8) for w in obj["weights"]) == [1.0, 2.0]

    def test_contract_matrix_product(self, capsys, tmp_path):
        a = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        b = DenseTensor([[5.0, 6.0], [7.0, 8.0]])
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_tensor(a, pa)
        save_tensor(b, pb)
        code, out = run(capsys, ["contract", str(pa), str(pb), "--mode", "2"])
        assert code == 0
        got = tensor_from_dict(json.loads(out))
        assert np.array_equal(got.to_array(), a.to_array() @ b.to_array())


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"shape": [2], "layout": "colex", "data": [1.0]}')
        bad2 = tmp_path / "bad2.json"
        bad2.write_text("not json")
        for path in (bad, bad2):
            with pytest.raises(SystemExit) as exc:
                main(["info", str(path)])
            assert exc.value.code == 2

    def test_missing_file_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "/nonexistent/t.json"])
        assert exc.value.code == 2

    def test_invalid_flags_are_4(self, capsys, golden_path):
        with pytest.raises(SystemExit) as exc:
            main(["eig", "--variant", "q", golden_path])
        assert exc.value.code == 4
        with pytest.raises(SystemExit) as exc:
            main(["cp", golden_path])  # --rank is required
        assert exc.value.code == 4

    def test_removed_threads_flag_is_a_usage_error(self, capsys, golden_path):
        with pytest.raises(SystemExit) as exc:
            main(["eig", golden_path, "--threads", "2"])
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads" in err and "Traceback" not in err

    def test_bad_counts_are_4(self, capsys, golden_path, tmp_path):
        cube_path = str(tmp_path / "cube.json")
        save_tensor(DenseTensor(np.random.default_rng(5).normal(size=(3, 3, 3))), cube_path)
        for argv in (
            ["cp", golden_path, "--rank", "1", "--max-iters", "0"],
            ["cp", golden_path, "--rank", "1", "--starts", "0"],
            ["odeco", golden_path, "--rank", "0"],
            ["odeco", golden_path, "--rank", "-1"],
            ["odeco", golden_path, "--max-iters", "0"],
            ["eig", golden_path, "--starts", "0"],
            ["eig", cube_path, "--starts", "0"],
            ["svd", golden_path, "--starts", "0"],
            ["svd", cube_path, "--p", "O", "--starts", "-3"],
            ["eig", golden_path, "--max-iters", "0"],
            ["eig", cube_path, "--variant", "h", "--max-iters", "0"],
            ["svd", cube_path, "--max-iters", "-1"],
        ):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert "must be >= 1" in err and "Traceback" not in err

    def test_cp_rank_above_the_fiber_count_is_4(self, capsys, golden_path):
        assert main(["cp", golden_path, "--rank", "5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rank 5 is above 4") and captured.err.count("\n") == 1

    def test_out_of_memory_is_4(self, capsys, monkeypatch, golden_path):
        # a count flag can ask for more memory than there is: one error line, no traceback
        def solver(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.71 GiB")

        monkeypatch.setattr(cli, "find_eigenpairs", solver)
        assert main(["eig", golden_path, "--starts", "100000000"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 6.71 GiB\n"

    def test_non_integer_ranks_are_4(self, capsys, golden_path):
        assert main(["hosvd", golden_path, "--ranks", "2,x"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --ranks must be comma-separated integers, got '2,x'\n"

    def test_malformed_tensor_is_2(self, capsys, tmp_path):
        for i, text in enumerate([
            '{"shape": [1.5], "layout": "colex", "data": [1.0]}',
            '{"shape": [2], "layout": "colex", "data": [[1.0], [2.0]]}',
            '{"shape": [2], "layout": "colex", "data": ["1", "2"]}',
            '{"shape": [2], "layout": "colex", "data": [true, false]}',
            '{"shape": [2], "layout": "colex", "data": [true, 1.5]}',
            '{"shape": [2], "layout": "colex", "data": [2, false]}',
        ]):
            path = tmp_path / f"bad{i}.json"
            path.write_text(text)
            with pytest.raises(SystemExit) as exc:
                main(["info", str(path)])
            assert exc.value.code == 2

    def test_integer_beyond_64_bits_loads(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"shape": [2], "layout": "colex", "data": [1.0, 100000000000000000000]}')
        code, out = run(capsys, ["info", str(path)])
        assert code == 0 and json.loads(out)["frobenius_norm"] == 1e20

    def test_deeply_nested_file_is_2(self, capsys, tmp_path):
        # the JSON parser's RecursionError used to escape as a traceback, exit 1
        depth = 100_000
        bare = tmp_path / "bare.json"
        bare.write_text("[" * depth)
        nested = tmp_path / "nested.json"
        nested.write_text('{"shape": [1], "layout": "colex", "data": ' + "[" * depth + "1" + "]" * depth + "}")
        for path in (bare, nested):
            with pytest.raises(SystemExit) as exc:
                main(["info", str(path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read tensor from {path}: ") and err.count("\n") == 1

    def test_info_norm_of_tiny_and_huge_entries(self, capsys, tmp_path):
        for c in (1e-170, 1e170):
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps({"shape": [2], "layout": "colex", "data": [3 * c, 4 * c]}))
            code, out = run(capsys, ["info", str(path)])
            assert code == 0 and json.loads(out)["frobenius_norm"] == pytest.approx(5 * c, rel=1e-11)

    def test_bad_mode_is_4(self, capsys, golden_path):
        assert main(["eig", "--mode", "7", golden_path]) == 4

    def test_output_file(self, capsys, tmp_path, golden_path):
        out_path = tmp_path / "out.json"
        code = main(["info", golden_path, "--output", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["order"] == 3

    def test_bad_tol_is_4(self, capsys, golden_path, tmp_path):
        # --tol nan and --tol -1 used to print "pairs": [] and exit 0
        cube_path = str(tmp_path / "cube.json")
        save_tensor(DenseTensor(np.random.default_rng(6).normal(size=(3, 3, 3))), cube_path)
        for tol in ("nan", "-1", "-inf"):
            for argv in (
                ["eig", golden_path],
                ["eig", cube_path, "--variant", "h"],
                ["svd", golden_path],
                ["svd", cube_path, "--p", "O"],
                ["cp", golden_path, "--rank", "1"],
                ["odeco", golden_path],
                ["mlrank", golden_path],
            ):
                assert main(argv + [f"--tol={tol}"]) == 4
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "tol must be >= 0" in captured.err and "Traceback" not in captured.err

    def test_malformed_tucker_file_is_2(self, capsys, tmp_path):
        core = '{"shape": [1, 1], "layout": "colex", "data": [1.0]}'
        for i, factors in enumerate(['[[["1"], [true]], [[0.5]]]', '[[[1.0], [NaN]], [[0.5]]]', '[[[1.0], [2.0, 3.0]], [[0.5]]]']):
            path = tmp_path / f"tk{i}.json"
            path.write_text(f'{{"core": {core}, "factors": {factors}}}')
            with pytest.raises(SystemExit) as exc:
                main(["tucker", str(path)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "cannot read Tucker decomposition" in captured.err

    def test_solver_flags_only_where_read(self, capsys, golden_path):
        solver = {"--tol": "1e-6", "--max-iters": "5", "--seed": "3", "--starts": "2"}
        subcommands = {
            "info": [golden_path], "contract": [golden_path, golden_path], "tucker": [golden_path],
            "hosvd": [golden_path], "mlrank": [golden_path], "odeco": [golden_path],
        }
        for command, args in subcommands.items():
            for flag, value in solver.items():
                if (command, flag) in {("mlrank", "--tol"), ("odeco", "--tol"), ("odeco", "--max-iters")}:
                    continue
                with pytest.raises(SystemExit) as exc:
                    main([command, *args, flag, value])
                assert exc.value.code == 4
                err = capsys.readouterr().err
                assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        # the bad values that used to be ignored
        with pytest.raises(SystemExit) as exc:
            main(["info", golden_path, "--tol", "nan", "--starts", "-5", "--max-iters", "0"])
        assert exc.value.code == 4
        capsys.readouterr()
        for command in ("eig", "svd", "cp", "odeco"):
            extra = ["--rank", "1"] if command == "cp" else []
            flags = {k: v for k, v in solver.items() if command != "odeco" or k in ("--tol", "--max-iters")}
            assert main([command, golden_path, *extra, *[x for kv in flags.items() for x in kv]]) in (0, 3)
            capsys.readouterr()

    def test_mlrank_tol_default(self, capsys, eight1_path):
        _, want = run(capsys, ["mlrank", eight1_path])
        assert run(capsys, ["mlrank", eight1_path, "--tol", "1e-8"])[1] == want
        assert json.loads(run(capsys, ["mlrank", eight1_path, "--tol", "0.9"])[1])["multilinear_rank"] == [1, 1, 1]

    def test_unwritable_output_is_4(self, capsys, tmp_path, golden_path):
        for target in (tmp_path / "missing" / "out.json", tmp_path):
            with pytest.raises(SystemExit) as exc:
                main(["info", golden_path, "--output", str(target)])
            assert exc.value.code == 4
            err = capsys.readouterr().err
            assert f"error: cannot write {target}" in err and "Traceback" not in err


def reject(token):
    raise ValueError(f"not JSON: {token}")


# colex entries on which svd --p O and cp --rank 2 overflow
MIXED_222 = [1e308, -3e307, 2e307, 5e307, 1e308, 0.0, -1e308, 4e307]
SCALAR_COMMANDS = (
    "info", "eig --mode 1", "eig --mode 3", "eig --variant h --mode 1", "eig --variant h --mode 3",
    "svd", "svd --p O", "cp --rank 1", "cp --rank 2", "odeco",
)
# exit 3 at the parent too
NOT_CONVERGED = {("mixed", "cp --rank 2"), ("mixed", "odeco")}


class TestPastTheFloatMaximum:
    """A result past the float maximum: ``null`` with one warning line, or one error line for a tensor."""

    @pytest.fixture()
    def big_paths(self, tmp_path):
        tensors = {
            "full222": DenseTensor(np.full((2, 2, 2), 1e308)),
            "full333": DenseTensor(np.full((3, 3, 3), 1e308)),
            "mixed": tensor_from_dict({"shape": [2, 2, 2], "layout": "colex", "data": MIXED_222}),
            "counterexample": counterexample_222() * 5e307,
        }
        paths = {}
        for name, t in tensors.items():
            paths[name] = str(tmp_path / f"{name}.json")
            save_tensor(t, paths[name])
        return paths

    def test_scalar_results_are_null(self, capsys, big_paths):
        overflowing = 0
        for name, path in big_paths.items():
            for command in SCALAR_COMMANDS:
                subcommand, *flags = command.split()
                assert main([subcommand, path, *flags]) == (3 if (name, command) in NOT_CONVERGED else 0), (name, command)
                captured = capsys.readouterr()
                json.loads(captured.out, parse_constant=reject)
                assert captured.err == (OVERFLOW_WARNING if "null" in captured.out else ""), (name, command)
                overflowing += "null" in captured.out
        # every run on the two full files; all but cp --rank 2 on the counterexample;
        # info, eig --variant h --mode 3, svd --p O and cp --rank 2 on the mixed file
        assert overflowing == 33

    def test_warning_is_shown_on_every_run(self, capsys, big_paths):
        for _ in range(3):
            assert main(["eig", big_paths["full333"]]) == 0
            assert capsys.readouterr().err == OVERFLOW_WARNING

    def test_table_prints_inf(self, capsys, big_paths):
        assert main(["eig", big_paths["full222"], "--format", "table"]) == 0
        captured = capsys.readouterr()
        assert "inf" in captured.out and captured.err == ""

    def test_tensor_results_are_an_error(self, capsys, big_paths, tmp_path):
        # evaluates to entries of 4e308
        tk = TuckerDecomposition(DenseTensor(np.full((2, 2), 1e308)), [np.ones((2, 2))] * 2)
        tk_path = str(tmp_path / "tk.json")
        Path(tk_path).write_text(json.dumps(tucker_to_dict(tk)))
        full222, full333 = big_paths["full222"], big_paths["full333"]
        for argv in (
            ["hosvd", full222], ["hosvd", full333], ["contract", full222, full222],
            ["contract", full333, full333], ["tucker", tk_path],
        ):
            assert main(argv) == 4, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == NOT_FINITE_ERROR, argv


FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
# floats whose .12g string is not their repr (zeros, integral values, exponents,
# subnormals, non-finite), and 12-digit rounding ties that are exact in binary
EDGE_FLOATS = [
    -0.0, 0.0, 1.0, -1.0, 999999999999.4, 999999999999.5, 999999999998.5, 1e12, 1e15, 1e16,
    1e-4, 9.99999999999e-5, 1e-5, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    12345678901.25, 12345678901.75, 1000000000005.0, 0.1, 1 / 3, -2.5,
    float("nan"), float("inf"), float("-inf"),
]
JSON_TREES = st.recursive(
    st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=16,
)


class TestJsonBytes:
    """`cli._to_json` writes the bytes of the reference encoder (`reference.cli_json`)."""

    def test_edge_floats(self):
        for x in EDGE_FLOATS:
            for obj in (x, [x], [x, 2.0], {"v": x, "vs": [1.5, x], "mixed": [x, 1, None]}):
                assert cli._to_json(obj) == cli_json(obj), x

    def test_long_lists_with_edge_floats(self):
        # a signalling NaN too, which numpy arithmetic on it reports as invalid
        edge = EDGE_FLOATS + [struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]]
        g = np.random.default_rng(13)
        for n in (99, 100, 10_000):
            xs = (g.normal(size=n) * 10.0 ** g.integers(-6, 13, size=n)).tolist()
            for x, i in zip(edge, g.choice(n, size=len(edge), replace=False)):
                xs[i] = x
            obj = {"data": xs}
            assert cli._to_json(obj) == cli_json(obj), n

    def test_empty_and_nested(self):
        for obj in ({}, [], {"a": []}, {"a": {}}, [[[]]], [[1.0, 2.0], [3.0]], {"p": [{"x": [0.5]}]}, "s", 3, True, None):
            assert cli._to_json(obj) == cli_json(obj)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=12))
    def test_float_lists(self, xs):
        obj = {"data": xs, "rows": [xs, xs[::-1]]}
        assert cli._to_json(obj) == cli_json(obj)

    @settings(max_examples=200, deadline=None)
    @given(JSON_TREES)
    def test_json_trees(self, obj):
        assert cli._to_json(obj) == cli_json(obj)

    def test_fixture_files(self):
        for path in FIXTURES:
            obj = json.loads(path.read_text())
            assert cli._to_json(obj) == cli_json(obj), path.name

    def test_every_subcommand(self, capsys, monkeypatch, tmp_path):
        emitted = []
        real_emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda obj, lines, args: (emitted.append(obj), real_emit(obj, lines, args)))
        g = np.random.default_rng(11)
        paths = {}
        for name, dims in (("cube", (3, 3, 3)), ("box", (2, 3, 4)), ("mat", (4, 3)), ("vec", (4,))):
            paths[name] = str(tmp_path / f"{name}.json")
            save_tensor(DenseTensor(g.normal(size=dims) * 10.0 ** g.integers(-8, 9)), paths[name])
        tk_path = str(tmp_path / "tk.json")
        inputs = [str(p) for p in FIXTURES[:3]] + [paths["cube"], paths["box"]]
        for path in inputs:
            for argv in (
                ["info", path], ["mlrank", path], ["hosvd", path], ["hosvd", path, "--ranks", "1,1,1"],
                ["tucker", tk_path], ["cp", path, "--rank", "2"], ["odeco", path], ["svd", path],
                ["svd", path, "--p", "O"], ["eig", path, "--mode", "2"], ["eig", path, "--variant", "h"],
                ["contract", path, path, "--mode", "1"], ["contract", paths["vec"], paths["mat"]],
                ["contract", paths["vec"], paths["vec"]],
            ):
                if argv[0] == "eig" and path == paths["box"]:
                    continue
                emitted.clear()
                assert main(argv) in (0, 3), argv
                out = capsys.readouterr().out
                assert out == cli_json(emitted[0]) + "\n", argv
                if argv[0] == "hosvd":
                    Path(tk_path).write_text(out)

    def test_table_lines_are_built_only_for_tables(self, capsys, monkeypatch, golden_path):
        def no_table(x):
            raise AssertionError("table line built in JSON mode")

        monkeypatch.setattr(cli, "_fmt", no_table)
        for argv in (["info", golden_path], ["eig", golden_path], ["contract", golden_path, golden_path]):
            assert main(argv) == 0
        with pytest.raises(AssertionError, match="table line"):
            main(["info", golden_path, "--format", "table"])


class TestParserReuse:
    def test_main_builds_one_parser(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_rejected_argv_then_valid(self, capsys, golden_path):
        _, want = run(capsys, ["eig", golden_path, "--mode", "2"])
        for bad in (["eig", "--variant", "q", golden_path], ["cp", golden_path], ["nope"], ["eig", golden_path, "--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 4
            capsys.readouterr()
            code, out = run(capsys, ["eig", golden_path, "--mode", "2"])
            assert code == 0 and out == want

    def test_flags_do_not_carry_over(self, capsys, golden_path):
        _, want = run(capsys, ["eig", golden_path])
        run(capsys, ["eig", golden_path, "--mode", "3", "--variant", "h", "--seed", "4", "--tol", "1e-6"])
        code, out = run(capsys, ["eig", golden_path])
        assert code == 0 and out == want

    def test_table_then_default_writes_json(self, capsys, golden_path):
        _, table = run(capsys, ["eig", golden_path, "--format", "table"])
        assert table.startswith("variant")
        code, out = run(capsys, ["eig", golden_path])
        assert code == 0
        assert json.loads(out)["pairs"]


GOLDEN_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "counterexample_222.json"


class TestTensorTables:
    """``--format table`` of the subcommands whose result is a tensor: the `_tensor_lines` bytes."""

    def test_contract_table(self, capsys):
        code, out = run(capsys, ["contract", str(GOLDEN_FIXTURE), str(GOLDEN_FIXTURE), "--mode", "1", "--format", "table"])
        assert code == 0
        assert out == (
            "shape: [2, 2, 2, 2]\n"
            "data: ['2', '2', '4', '4', '2', '2', '4', '4', '4', '4', '8', '8', '4', '4', '8', '8']\n"
        )

    def test_tucker_table(self, capsys, tmp_path):
        core = json.loads(GOLDEN_FIXTURE.read_text())
        path = tmp_path / "tk.json"
        path.write_text(json.dumps({"core": core, "factors": [[[0.5, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 0.1]]]}))
        code, out = run(capsys, ["tucker", str(path), "--format", "table"])
        assert code == 0
        # 6 * 0.1 is 0.6000000000000001, printed to 12 significant digits
        assert out == "shape: [2, 2, 2]\ndata: ['1.5', '9', '1.5', '9', '0.1', '0.6', '0.1', '0.6']\n"


def g12(x):
    """A number as the table prints it, to 12 significant digits."""
    return f"{x:.12g}"


class TestRecordTables:
    """``--format table`` of svd, cp, hosvd and odeco on the golden fixture: a header and one line per record, or one line per field, with the JSON output's values."""

    @staticmethod
    def table_and_json(capsys, argv):
        code, table = run(capsys, argv + ["--format", "table"])
        json_code, out = run(capsys, argv)
        assert code == json_code == 0
        return table.splitlines(), json.loads(out)

    @pytest.mark.parametrize("p", ["2", "O"])
    def test_svd(self, capsys, p):
        lines, obj = self.table_and_json(capsys, ["svd", str(GOLDEN_FIXTURE), "--p", p])
        assert lines[0] == "p   sigma                 residual      vectors"
        assert len(lines) == 1 + len(obj["tuples"]) > 1
        for line, t in zip(lines[1:], obj["tuples"]):
            vectors = " ".join("(" + ", ".join(map(g12, v)) + ")" for v in t["vectors"])
            assert line == f"{t['p']:<4}{g12(t['sigma']):<22}{g12(t['residual']):<14}{vectors}"

    def test_cp(self, capsys):
        lines, obj = self.table_and_json(capsys, ["cp", str(GOLDEN_FIXTURE), "--rank", "1"])
        assert lines == [
            "rank: 1",
            f"relative_error: {g12(obj['relative_error'])}",
            f"weights: {[g12(w) for w in obj['weights']]}",
        ]

    @pytest.mark.parametrize("ranks", [[], ["--ranks", "1,1,1"]])
    def test_hosvd(self, capsys, ranks):
        lines, obj = self.table_and_json(capsys, ["hosvd", str(GOLDEN_FIXTURE)] + ranks)
        assert lines == [
            f"core_shape: {[1, 1, 1] if ranks else [2, 2, 2]}",
            f"reconstruction_error: {g12(obj['reconstruction_error'])}",
        ]

    def test_odeco(self, capsys):
        lines, obj = self.table_and_json(capsys, ["odeco", str(GOLDEN_FIXTURE)])
        assert lines == [
            "status: ok",
            f"reconstruction_error: {g12(obj['reconstruction_error'])}",
            f"orthogonality_defect: {g12(obj['orthogonality_defect'])}",
            f"weights: {[g12(w) for w in obj['weights']]}",
        ]


def symmetrized(arr):
    perms = list(itertools.permutations(range(arr.ndim)))
    return sum(np.transpose(arr, p) for p in perms) / len(perms)


class TestScaleFreeSymmetry:
    """info's ``symmetric``, and with it odeco's map, does not depend on the tensor's scale."""

    @staticmethod
    def info_and_odeco(capsys, tmp_path, arr):
        path = str(tmp_path / "t.json")
        save_tensor(DenseTensor(arr), path)
        symmetric = json.loads(run(capsys, ["info", path])[1])["symmetric"]
        code, out = run(capsys, ["odeco", path])
        return symmetric, code, json.loads(out)["status"]

    def test_random_cube_at_tiny_scale(self, capsys, tmp_path):
        arr = np.random.default_rng(5).normal(size=(3, 3, 3))
        want = self.info_and_odeco(capsys, tmp_path, arr)
        assert want == (False, 3, "not_orthogonal")
        assert self.info_and_odeco(capsys, tmp_path, 1e-14 * arr) == want

    def test_symmetrized_cube_at_every_scale(self, capsys, tmp_path):
        arr = symmetrized(np.random.default_rng(5).normal(size=(4, 4, 4)))
        for c in (1.0, 1e8, 1e-8):
            path = str(tmp_path / "t.json")
            save_tensor(DenseTensor(c * arr), path)
            code, out = run(capsys, ["info", path])
            assert code == 0 and json.loads(out)["symmetric"] is True, c


class TestSolverFlagsOneHome:
    """The flags `build_parser` declares for a solver subcommand are exactly the solver's keywords of those names."""

    SOLVERS = {"eig": find_eigenpairs, "svd": find_singular_tuples, "cp": cp_als, "odeco": odeco_decompose}
    VALUES = {"tol": "1e-6", "max_iters": "5", "seed": "3", "starts": "2"}

    def test_solver_opts_match_signatures(self):
        parser = cli.build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        # only `_add_solver` declares --max-iters
        with_solver = {name for name, p in sub.choices.items() if any(a.dest == "max_iters" for a in p._actions)}
        assert with_solver == set(self.SOLVERS)
        for command, solver in self.SOLVERS.items():
            declared = [a for a in sub.choices[command]._actions if a.dest in self.VALUES]
            argv = [command, str(GOLDEN_FIXTURE)] + (["--rank", "1"] if command == "cp" else [])
            argv += [x for a in declared for x in (a.option_strings[0], self.VALUES[a.dest])]
            opts = cli._solver_opts(parser.parse_args(argv))
            params = inspect.signature(solver).parameters
            keywords = {n for n, prm in params.items() if prm.kind is prm.KEYWORD_ONLY and n in self.VALUES}
            assert set(opts) == keywords == {a.dest for a in declared}, command
