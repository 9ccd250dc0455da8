"""JSON round-trips and file-format rejection rules."""

import io
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tensorspec.spectra import EigenPair, SingularTuple, find_eigenpairs, find_singular_tuples
from tensorspec.tensor import DenseTensor


# JSON values a malformed tensor file may hold where a dim or an entry belongs
MALFORMED_ENTRY = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-3, max_value=4),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


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

    def test_rejects_bad_shape_entries(self):
        for shape in ([1.5], [True, 1], [2.0], [0], [-1, 2], "22", 2, [None], [[2]]):
            with pytest.raises(ValueError):
                tensor_from_dict({"shape": shape, "layout": "colex", "data": [1.0, 2.0]})

    def test_rejects_non_numeric_data(self):
        for data in ([[1.0], [2.0]], [[1.0, 2.0]], ["1", "2"], [True, False], [1.0, None],
                     [1.0, "x"], [[1.0], [2.0, 3.0]], "12", {"a": 1.0}, 3.0,
                     [True, 1.5], [1, False], [1.0, True]):
            with pytest.raises(ValueError):
                tensor_from_dict({"shape": [2], "layout": "colex", "data": data})

    def test_integer_data_loads_as_floats(self):
        t = tensor_from_dict({"shape": [2, 1], "layout": "colex", "data": [1, -2]})
        assert t.dims == (2, 1)
        assert np.array_equal(t.to_buffer(), [1.0, -2.0])

    def test_integers_beyond_64_bits_load_as_floats(self):
        # JSON.stringify(1e20) writes 100000000000000000000, past int64 and uint64
        t = tensor_from_dict({"shape": [3], "layout": "colex", "data": [1.0, 10**20, -(10**20)]})
        assert np.array_equal(t.to_buffer(), [1.0, 1e20, -1e20])
        with pytest.raises(ValueError):
            tensor_from_dict({"shape": [2], "layout": "colex", "data": [1.0, 10**400]})
        with pytest.raises(ValueError):
            tensor_from_dict({"shape": [2], "layout": "colex", "data": ["1", 10**20]})

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.one_of(
            st.lists(MALFORMED_ENTRY, max_size=3),
            st.lists(st.integers(min_value=-1, max_value=3), max_size=3),
            MALFORMED_ENTRY,
        ),
        data=st.one_of(
            st.lists(MALFORMED_ENTRY, max_size=6),
            st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6),
            st.lists(st.one_of(st.integers(), st.floats(), st.integers(min_value=2**63)), max_size=6),
            MALFORMED_ENTRY,
        ),
    )
    def test_malformed_objects_are_rejected_or_exact(self, shape, data):
        try:
            t = tensor_from_dict({"shape": shape, "layout": "colex", "data": data})
        except ValueError:
            return
        assert all(type(d) is int for d in shape) and list(t.dims) == shape
        assert all(isinstance(x, (int, float)) for x in data) and not any(isinstance(x, bool) for x in data)
        assert np.array_equal(t.to_buffer(), [float(x) for x in data])

    def test_save_tensor_bytes_match_json_dump(self, tmp_path):
        # the streaming encoder's output, which the tensor file format was written with
        edge = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1, 1 / 3, 1e300, -2.5, 1e15, 123.0]
        for t in (DenseTensor(np.array(edge).reshape(3, 4)), DenseTensor(rng(5).normal(size=(3, 4, 5))),
                  golden.counterexample_222()):
            path = tmp_path / "t.json"
            save_tensor(t, path)
            want = io.StringIO()
            json.dump({"shape": list(t.dims), "layout": "colex", "data": [float(x) for x in t.to_buffer()]}, want)
            want.write("\n")
            assert path.read_bytes() == want.getvalue().encode("utf-8")

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

    # factors and weights follow the tensor data's rule: equal-length row lists
    # of exact int/float entries, all finite
    BAD_FACTORS = [
        [[["1"], [True]], [[0.5]]],
        [[[1.0], [True]], [[0.5]]],
        [[[1.0], [2.0]], [[float("nan")]]],
        [[[1.0], [float("inf")]], [[0.5]]],
        [[[1.0], [10**400]], [[0.5]]],
        [[[1.0], [2.0, 3.0]], [[0.5]]],
        [[[1.0], [None]], [[0.5]]],
        [[1.0, 2.0], [[0.5]]],
        [[], [[0.5]]],
        [[[[1.0]], [[2.0]]], [[0.5]]],
        [[[1.0], [2.0]], "x"],
        "factors",
    ]

    def test_tucker_rejects_bad_factors(self):
        core = {"shape": [1, 1], "layout": "colex", "data": [1.0]}
        assert tucker_from_dict({"core": core, "factors": [[[1], [2.5]], [[0.5]]]}).dims == (2, 1)
        for factors in self.BAD_FACTORS:
            with pytest.raises(ValueError):
                tucker_from_dict({"core": core, "factors": factors})

    def test_cp_rejects_bad_factors_and_weights(self):
        assert cp_from_dict({"weights": [2], "factors": [[[1], [2.5]], [[0.5]]]}).dims == (2, 1)
        for factors in self.BAD_FACTORS:
            with pytest.raises(ValueError):
                cp_from_dict({"weights": [1.0], "factors": factors})
        for weights in ([True], ["1"], [float("nan")], [[1.0]], 1.0, [10**400]):
            with pytest.raises(ValueError):
                cp_from_dict({"weights": weights, "factors": [[[1.0]], [[0.5]]]})


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

    def test_solver_records_roundtrip(self):
        arr = rng(5).normal(size=(3, 3, 3))
        records = find_eigenpairs(arr, 2, "z") + find_eigenpairs(arr, 1, "h")
        for p in records:
            back = eigenpair_from_dict(json.loads(json.dumps(eigenpair_to_dict(p))))
            assert (back.variant, back.mode, back.value, back.residual, back.converged) == (
                p.variant, p.mode, p.value, p.residual, p.converged)
            assert np.array_equal(back.vector, p.vector)
        for s in find_singular_tuples(arr, 2) + find_singular_tuples(arr, 3):
            back = singular_tuple_from_dict(json.loads(json.dumps(singular_tuple_to_dict(s))))
            assert (back.p, back.sigma, back.residual, back.converged) == (s.p, s.sigma, s.residual, s.converged)
            assert all(np.array_equal(a, b) for a, b in zip(back.vectors, s.vectors))

    # records follow the tensor data's rule: exact, finite int/float numbers
    EIG = {"variant": "z", "mode": 1, "lambda": 1.5, "vector": [0.6, 0.8], "residual": 0.0, "converged": True}
    BAD_EIG = [
        {"vector": ["1", True]},
        {"vector": [1.0, True]},
        {"vector": [float("nan"), 0.8]},
        {"vector": [0.6, float("inf")]},
        {"vector": [[0.6], [0.8]]},
        {"vector": []},
        {"vector": 0.6},
        {"mode": 1.9},
        {"mode": 0},
        {"mode": True},
        {"mode": "1"},
        {"lambda": "1.5"},
        {"lambda": False},
        {"lambda": float("nan")},
        {"residual": None},
        {"residual": 10**400},
        {"converged": 1},
        {"variant": "x"},
    ]

    def test_eigenpair_rejects_junk(self):
        assert eigenpair_from_dict(dict(self.EIG, mode=2, vector=[1, 0])).mode == 2
        for bad in self.BAD_EIG:
            with pytest.raises(ValueError):
                eigenpair_from_dict(dict(self.EIG, **bad))
        for key in self.EIG:
            if key != "converged":
                with pytest.raises(ValueError):
                    eigenpair_from_dict({k: v for k, v in self.EIG.items() if k != key})
        with pytest.raises(ValueError):
            eigenpair_from_dict([self.EIG])

    TUP = {"p": 3, "sigma": 2.0, "vectors": [[1.0, 0.0], [0, 1], [1.0]], "residual": 0.0}
    BAD_TUP = [
        {"p": 7, "vectors": []},
        {"p": 7},
        {"p": 3.0},
        {"p": True},
        {"p": 1},
        {"p": 3, "vectors": [[1.0, 0.0]]},
        {"p": 2, "vectors": [[1.0, 0.0]]},
        {"vectors": [[1.0, 0.0], [], [1.0]]},
        {"vectors": [[1.0, 0.0], ["1"], [1.0]]},
        {"vectors": [[1.0, 0.0], [True], [1.0]]},
        {"vectors": [[1.0, 0.0], [float("nan")], [1.0]]},
        {"vectors": [[1.0, 0.0], [[1.0]], [1.0]]},
        {"vectors": "vectors"},
        {"sigma": "2"},
        {"sigma": float("-inf")},
        {"residual": True},
        {"converged": "yes"},
    ]

    def test_singular_tuple_rejects_junk(self):
        assert singular_tuple_from_dict(dict(self.TUP, p=2)).order == 3
        for bad in self.BAD_TUP:
            with pytest.raises(ValueError):
                singular_tuple_from_dict(dict(self.TUP, **bad))
        for key in self.TUP:
            with pytest.raises(ValueError):
                singular_tuple_from_dict({k: v for k, v in self.TUP.items() if k != key})


class TestFixtures:
    def test_module_run_regenerates_the_checked_in_bytes(self, tmp_path, monkeypatch, capsys):
        # `python -m tensorspec.golden <dir>`, run in process; a fresh module,
        # as runpy warns when it runs one that is already imported
        checked_in = Path(__file__).resolve().parent.parent / "fixtures"
        monkeypatch.delitem(sys.modules, "tensorspec.golden")
        monkeypatch.setattr(sys, "argv", ["golden", str(tmp_path)])
        runpy.run_module("tensorspec.golden", run_name="__main__")
        names = sorted(p.name for p in checked_in.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert sorted(Path(p).name for p in capsys.readouterr().out.splitlines()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (checked_in / name).read_bytes()
