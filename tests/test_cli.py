"""Command-line interface: subcommands, exit codes, determinism, round-trips."""

import json
import math

import numpy as np
import pytest

from tensorspec.cli import main
from tensorspec.golden import counterexample_222, rank3_multilinear22
from tensorspec.serialize import (
    cp_from_dict,
    save_tensor,
    tensor_from_dict,
    tucker_from_dict,
    tucker_to_dict,
)
from tensorspec.decomp import TuckerDecomposition
from tensorspec.tensor import DenseTensor


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
        with pytest.warns(UserWarning, match="not isolated"):
            code = main(["eig", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["pairs"] == []
        assert "Traceback" not in captured.err

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
            ["odeco", golden_path, "--starts", "0"],
            ["odeco", golden_path, "--rank", "0"],
            ["odeco", golden_path, "--rank", "-1"],
            ["odeco", golden_path, "--max-iters", "0"],
            ["eig", golden_path, "--starts", "0"],
            ["eig", cube_path, "--starts", "0"],
            ["svd", golden_path, "--starts", "0"],
            ["svd", cube_path, "--p", "O", "--starts", "-3"],
        ):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert "must be >= 1" in err and "Traceback" not in err

    def test_malformed_tensor_is_2(self, capsys, tmp_path):
        for i, text in enumerate([
            '{"shape": [1.5], "layout": "colex", "data": [1.0]}',
            '{"shape": [2], "layout": "colex", "data": [[1.0], [2.0]]}',
            '{"shape": [2], "layout": "colex", "data": ["1", "2"]}',
            '{"shape": [2], "layout": "colex", "data": [true, false]}',
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

    def test_bad_mode_is_4(self, capsys, golden_path):
        assert main(["eig", "--mode", "7", golden_path]) == 4

    def test_output_file(self, capsys, tmp_path, golden_path):
        out_path = tmp_path / "out.json"
        code = main(["info", golden_path, "--output", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["order"] == 3
