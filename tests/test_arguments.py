"""One reader for each argument rule, checked at every public entry point.

Every integer argument (mode, multi-index, rank, dims, block length,
permutation, ``p``) is read by `operator.index`: a float raises `TypeError`
instead of being truncated or failing inside numpy, a numpy integer gives
the result of the plain ``int``, and an out-of-range value raises what it
always raised.  Orderings, seeds, tensor orders and the singular-tuple ``p``
rule each have one check as well.
"""

import dataclasses

import numpy as np
import pytest

from tensorspec import cli
from tensorspec.contract import contract, contract_all_but, mode_product, trace_pair
from tensorspec.decomp import (
    CpAlsResult,
    CpDecomposition,
    OdecoResult,
    TuckerDecomposition,
    cp_als,
    hosvd,
    odeco_decompose,
)
from tensorspec.serialize import save_tensor
from tensorspec.shape import (
    ContiguousPartition,
    Shape,
    colex_rank,
    compose_permutations,
    invert_permutation,
    lex_rank,
    rank,
    unrank,
)
from tensorspec.spectra import (
    BestRankOne,
    BridgeResult,
    EigenPair,
    SingularTuple,
    best_rank_one,
    eig_residual,
    eig_singular_bridge,
    find_eigenpairs,
    find_singular_tuples,
    singular_residual,
)
from tensorspec.tensor import (
    DenseTensor,
    fiber,
    matricize,
    permute_modes,
    tensorize,
    unit_tensor,
    vectorize,
)

BOX = np.arange(1.0, 25.0).reshape(2, 3, 4)
CUBE = np.random.default_rng(3).normal(size=(3, 3, 3))

# name: (call taking the argument, a valid int, an out-of-range int, what that raises)
INTEGER_ARGUMENTS = {
    "Shape dims": (lambda x: Shape([2, x]), 3, 0, ValueError),
    "Shape.check_index": (lambda x: Shape([2, 3]).check_index((1, x)), 2, 4, IndexError),
    "DenseTensor dims": (lambda x: DenseTensor(np.arange(6.0), dims=[2, x]), 3, 4, ValueError),
    "DenseTensor index": (lambda x: DenseTensor(BOX)[(2, x, 1)], 3, 4, IndexError),
    "DenseTensor scalar index": (lambda x: DenseTensor(np.arange(3.0))[x], 2, 4, IndexError),
    "unit_tensor": (lambda x: unit_tensor([2, 3], (1, x)), 2, 4, IndexError),
    "colex_rank": (lambda x: colex_rank([2, 3], (1, x)), 2, 4, IndexError),
    "lex_rank": (lambda x: lex_rank([2, 3], (x, 3)), 2, 3, IndexError),
    "rank": (lambda x: rank([2, 3], (x, 2), "lex"), 2, 0, IndexError),
    "unrank": (lambda x: unrank([2, 3], x), 5, 7, IndexError),
    "unrank lex": (lambda x: unrank([2, 3], x, "lex"), 4, 0, IndexError),
    "ContiguousPartition": (lambda x: ContiguousPartition([1, x]), 2, 0, ValueError),
    "block_of": (lambda x: ContiguousPartition([1, 2]).block_of(x), 2, 4, IndexError),
    "permute_modes": (lambda x: permute_modes(BOX, (x, 1, 3)), 2, 4, ValueError),
    "compose_permutations": (lambda x: compose_permutations((x, 1, 3), (1, 3, 2)), 2, 4, ValueError),
    "invert_permutation": (lambda x: invert_permutation((3, x, 1)), 2, 4, ValueError),
    "tensorize": (lambda x: tensorize(np.arange(6.0), [2, x]), 3, 4, ValueError),
    "matricize": (lambda x: matricize(BOX, [x]), 2, 4, ValueError),
    "fiber mode": (lambda x: fiber(BOX, x, (1, 1)), 2, 4, IndexError),
    "fiber index": (lambda x: fiber(BOX, 2, (x, 1)), 2, 3, IndexError),
    "trace_pair": (lambda x: trace_pair(CUBE, x, 3), 1, 4, IndexError),
    "contract first mode": (lambda x: contract(BOX, x, BOX, 1), 1, 4, IndexError),
    "contract second mode": (lambda x: contract(BOX, 1, BOX, x), 1, 4, IndexError),
    "mode_product": (lambda x: mode_product(BOX, x, np.ones((2, 3))), 2, 4, IndexError),
    "contract_all_but": (lambda x: contract_all_but(CUBE, x, [np.ones(3), np.ones(3)]), 2, 4, IndexError),
    "find_eigenpairs": (lambda x: find_eigenpairs(CUBE, x, "z", starts=4), 2, 4, IndexError),
    "eig_residual": (lambda x: eig_residual(CUBE, EigenPair("z", x, 1.0, np.ones(3), 0.0)), 2, 4, IndexError),
    "find_singular_tuples p": (lambda x: find_singular_tuples(CUBE, x, starts=4), 3, 4, ValueError),
    "hosvd": (lambda x: hosvd(BOX, [2, x, 4]), 2, 4, ValueError),
    "cp_als": (lambda x: cp_als(BOX, x, max_iters=3, starts=2), 2, 0, ValueError),
    "odeco_decompose": (lambda x: odeco_decompose(CUBE, rank=x, max_iters=5), 2, 0, ValueError),
}


def plain(r):
    """``r`` as nested lists, tuples and arrays, so two results compare entry by entry."""
    if isinstance(r, DenseTensor):
        return r.to_array()
    if dataclasses.is_dataclass(r):
        return {f.name: plain(getattr(r, f.name)) for f in dataclasses.fields(r)}
    if isinstance(r, (list, tuple)):
        return type(r)(plain(x) for x in r)
    return r


@pytest.mark.parametrize("call, good, bad, error", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
class TestIntegerArguments:
    def test_float_raises_type_error(self, call, good, bad, error):
        for x in (good + 0.5, float(good)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call(x)

    def test_numpy_integer_acts_as_int(self, call, good, bad, error):
        want = plain(call(good))
        got = plain(call(np.int64(good)))
        np.testing.assert_equal(got, want)
        assert repr(got) == repr(want)  # plain ints, not numpy scalars

    def test_out_of_range_raises(self, call, good, bad, error):
        with pytest.raises(error):
            call(bad)


ORDERING_ARGUMENTS = {
    "Shape.iter_indices": lambda o: Shape([2, 3]).iter_indices(o),
    "rank": lambda o: rank([2, 3], (1, 2), o),
    "unrank": lambda o: unrank([2, 3], 2, o),
    "vectorize": lambda o: vectorize(BOX, o),
    "tensorize": lambda o: tensorize(np.arange(6.0), [2, 3], o),
    "matricize": lambda o: matricize(BOX, [1], o),
}


@pytest.mark.parametrize("call", ORDERING_ARGUMENTS.values(), ids=ORDERING_ARGUMENTS)
def test_unknown_ordering_raises_when_called(call):
    with pytest.raises(ValueError, match=r"ordering must be one of \('lex', 'colex'\), got 'zigzag'"):
        call("zigzag")


def test_lex_and_colex_ranks_agree_with_enumeration():
    for ordering in ("lex", "colex"):
        for k, m in enumerate(Shape([2, 3, 2]).iter_indices(ordering), start=1):
            assert rank([2, 3, 2], m, ordering) == k
            assert unrank([2, 3, 2], k, ordering) == m
    assert colex_rank([2, 3, 2], (2, 1, 2)) == rank([2, 3, 2], (2, 1, 2)) == 8
    assert lex_rank([2, 3, 2], (2, 1, 2)) == rank([2, 3, 2], (2, 1, 2), "lex") == 8


SOLVERS = {
    "find_eigenpairs size 2": lambda **kw: find_eigenpairs(np.ones((2, 2, 2)) + np.eye(2)[:, :, None], 1, "z", **kw),
    "find_eigenpairs iterative": lambda **kw: find_eigenpairs(CUBE, 1, "h", starts=4, **kw),
    "find_singular_tuples": lambda **kw: find_singular_tuples(CUBE, 2, starts=4, **kw),
    "best_rank_one": lambda **kw: best_rank_one(CUBE, starts=4, **kw),
    "cp_als": lambda **kw: cp_als(CUBE, 2, starts=2, max_iters=3, **kw),
}


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS)
def test_one_seed_rule_on_every_path(solve):
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        solve(seed=-1)
    with pytest.raises(TypeError):
        solve(seed=1.5)
    plain(solve(seed=np.int64(1)))


@pytest.mark.parametrize("command", ["eig", "svd", "cp"])
def test_cli_negative_seed_is_4(command, capsys, tmp_path):
    path = tmp_path / "cube.json"
    save_tensor(DenseTensor(CUBE), path)
    extra = ["--rank", "2"] if command == "cp" else []
    assert cli.main([command, str(path), "--seed", "-1"] + extra) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed must be >= 0\n"


def test_cli_odeco_of_a_vector_is_4(capsys, tmp_path):
    path = tmp_path / "vector.json"
    save_tensor(DenseTensor(np.arange(1.0, 8.0)), path)
    assert cli.main(["odeco", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: odeco fits need a tensor of order >= 2, got order 1\n"


def test_odeco_of_a_vector_is_rejected():
    for symmetric in (False, True):
        with pytest.raises(ValueError, match="order >= 2"):
            odeco_decompose(np.arange(1.0, 4.0), symmetric=symmetric)


def test_variant_that_is_not_a_string_is_a_value_error():
    for variant in (None, 1, "x"):
        with pytest.raises(ValueError, match="variant must be 'z' or 'h'"):
            find_eigenpairs(CUBE, 1, variant)


def test_singular_tuple_checks_p_and_vector_count():
    ones = np.ones(3)
    for p, vectors in ((5, (ones,) * 3), (4, (ones,) * 3), (2, (ones,)), (2, ())):
        with pytest.raises(ValueError):
            SingularTuple(p, 1.0, vectors, 0.0)
    with pytest.raises(TypeError):
        SingularTuple(2.0, 1.0, (ones,) * 3, 0.0)
    for p in (2, 3, np.int64(3)):
        tup = SingularTuple(p, 1.0, (ones,) * 3, 0.0)
        assert type(tup.p) is int and singular_residual(CUBE, tup) >= 0.0


def _results():
    """Per result class, one record and a function that builds an equal-valued twin."""
    ones, cube = np.ones(3), DenseTensor(CUBE)
    pair = find_eigenpairs(CUBE, 1, "z", starts=4)[0]
    return {
        EigenPair: (pair, lambda: EigenPair(pair.variant, pair.mode, pair.value, pair.vector.copy(), pair.residual)),
        SingularTuple: (SingularTuple(2, 1.0, (ones,) * 3, 0.0), lambda: SingularTuple(2, 1.0, (ones.copy(),) * 3, 0.0)),
        BestRankOne: (best_rank_one(cube, starts=4), lambda: best_rank_one(cube, starts=4)),
        BridgeResult: (eig_singular_bridge(cube, pair), lambda: eig_singular_bridge(cube, pair)),
        CpDecomposition: (CpDecomposition(np.ones(2), [np.eye(3, 2)] * 3), lambda: CpDecomposition(np.ones(2), [np.eye(3, 2)] * 3)),
        TuckerDecomposition: (TuckerDecomposition(cube, [np.eye(3)] * 3), lambda: TuckerDecomposition(cube, [np.eye(3)] * 3)),
        CpAlsResult: (cp_als(cube, 2, max_iters=3), lambda: cp_als(cube, 2, max_iters=3)),
        OdecoResult: (odeco_decompose(cube, max_iters=3), lambda: odeco_decompose(cube, max_iters=3)),
    }


def test_results_compare_by_identity():
    """``==``, ``in`` and ``hash`` on the result records return; value comparison is `np.array_equal`'s."""
    for cls, (record, twin) in _results().items():
        other = twin()
        assert type(record) is cls and type(other) is cls
        assert record == record and not (record == other) and record != other
        assert record in [other, record] and other not in [record]
        assert hash(record) == hash(record)
        assert len({record, other}) == 2
