"""JSON round-trips and file-format rejection rules."""

import json
from pathlib import Path

import numpy as np
import pytest

from tensorspec import golden
from tensorspec.decomp import CpDecomposition, TuckerDecomposition, cp_eval, tucker_eval
from tensorspec.serialize import (
    cp_from_dict,
    cp_to_dict,
    eigenpair_from_dict,
    eigenpair_to_dict,
    load_tensor,
    save_tensor,
    singular_tuple_from_dict,
    singular_tuple_to_dict,
    tensor_from_dict,
    tensor_to_dict,
    tucker_from_dict,
    tucker_to_dict,
)
from tensorspec.spectra import EigenPair, SingularTuple
from tensorspec.tensor import DenseTensor


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTensorFormat:
    def test_roundtrip(self, tmp_path):
        t = DenseTensor(rng(1).normal(size=(2, 3, 2)))
        path = tmp_path / "t.json"
        save_tensor(t, path)
        assert load_tensor(path) == t

    def test_dict_shape(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        obj = tensor_to_dict(t)
        assert obj["shape"] == [2, 2]
        assert obj["layout"] == "colex"
        assert obj["data"] == [1.0, 3.0, 2.0, 4.0]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            tensor_from_dict({"shape": [2, 2], "layout": "colex", "data": [1.0, 2.0]})

    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError):
            tensor_from_dict({"shape": [2], "layout": "lex", "data": [1.0, 2.0]})

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            tensor_from_dict({"shape": [2], "layout": "colex", "data": [1.0, float("nan")]})
        with pytest.raises(ValueError):
            tensor_from_dict({"shape": [2], "layout": "colex", "data": [1.0, float("inf")]})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            tensor_from_dict({"shape": [2], "data": [1.0, 2.0]})
        with pytest.raises(ValueError):
            tensor_from_dict([1.0, 2.0])


class TestDecompositionFormats:
    def test_cp_roundtrip(self):
        g = rng(2)
        cp = CpDecomposition(g.normal(size=2), [g.normal(size=(3, 2)), g.normal(size=(2, 2))])
        back = cp_from_dict(json.loads(json.dumps(cp_to_dict(cp))))
        assert cp_eval(back).allclose(cp_eval(cp), tol=0.0)

    def test_tucker_roundtrip(self):
        g = rng(3)
        tk = TuckerDecomposition(
            DenseTensor(g.normal(size=(2, 2))), [g.normal(size=(3, 2)), g.normal(size=(4, 2))]
        )
        back = tucker_from_dict(json.loads(json.dumps(tucker_to_dict(tk))))
        assert tucker_eval(back).allclose(tucker_eval(tk), tol=0.0)


class TestResultFormats:
    def test_eigenpair_roundtrip(self):
        p = EigenPair("z", 2, -1.5, np.array([0.6, 0.8]), 1e-12)
        obj = json.loads(json.dumps(eigenpair_to_dict(p)))
        assert obj["lambda"] == -1.5
        back = eigenpair_from_dict(obj)
        assert back.variant == p.variant and back.mode == p.mode
        assert back.value == p.value
        assert np.array_equal(back.vector, p.vector)

    def test_singular_tuple_roundtrip(self):
        s = SingularTuple(2, 2.0, (np.array([1.0, 0.0]), np.array([0.0, 1.0])), 0.0)
        back = singular_tuple_from_dict(json.loads(json.dumps(singular_tuple_to_dict(s))))
        assert back.p == 2 and back.sigma == 2.0
        assert all(np.array_equal(a, b) for a, b in zip(back.vectors, s.vectors))


class TestFixtures:
    def test_checked_in_fixtures_match_golden(self, tmp_path):
        checked_in = Path(__file__).resolve().parent.parent / "fixtures"
        written = golden.write_fixtures(str(tmp_path))
        assert sorted(Path(p).name for p in written) == sorted(p.name for p in checked_in.glob("*.json"))
        for p in written:
            assert Path(p).read_bytes() == (checked_in / Path(p).name).read_bytes()
