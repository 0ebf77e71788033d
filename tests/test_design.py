import importlib
import itertools
import pathlib
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorbounds
from factorbounds.design import (
    _memoized,
    contexts_for,
    context_arms,
    enumerate_assignments,
    interaction_contrast,
    main_effect_contrast,
)
from factorbounds.errors import InvalidDesignError, InvalidFactorError
from factorbounds.estimate import endpoint_functions

from conftest import assignments, strip_factor


def test_canonical_order_k2():
    design = enumerate_assignments(2)
    assert assignments(design) == [(-1, -1), (1, -1), (-1, 1), (1, 1)]


def test_canonical_order_k1_k3():
    assert assignments(enumerate_assignments(1)) == [(-1,), (1,)]
    d3 = enumerate_assignments(3)
    # factor 1 flips fastest, factor 3 slowest
    assert d3.assignment(0) == (-1, -1, -1)
    assert d3.assignment(1) == (1, -1, -1)
    assert d3.assignment(4) == (-1, -1, 1)
    assert d3.assignment(7) == (1, 1, 1)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_index_roundtrip(K, data):
    design = enumerate_assignments(K)
    j = data.draw(st.integers(min_value=0, max_value=design.J - 1))
    assert design.index(design.assignment(j)) == j


@pytest.mark.parametrize("j", [True, 1.0])
def test_assignment_refuses_a_non_integer_index(j):
    message = f"assignment index must be an integer in 0..3, got {j!r}"
    with pytest.raises(InvalidDesignError, match=re.escape(message)):
        enumerate_assignments(2).assignment(j)


@pytest.mark.parametrize("level", [True, 1.0])
def test_index_refuses_a_non_integer_level(level):
    # both equal 1, which once read as the +1 level and gave index 1
    with pytest.raises(InvalidDesignError, match="levels must be -1 or"):
        enumerate_assignments(2).index((level, -1))


def test_bad_k_rejected():
    for bad in (0, -1, 17, 2.0, True, "2"):
        with pytest.raises(InvalidDesignError):
            enumerate_assignments(bad)


def test_main_contrast_matches_levels():
    design = enumerate_assignments(3)
    for k in (1, 2, 3):
        g = main_effect_contrast(design, k)
        for j, z in enumerate(design.levels):
            assert g.signs[j] == z[k - 1]
        assert g.signs.sum() == 0


def test_interaction_is_product_of_mains():
    design = enumerate_assignments(4)
    for fs in [(1, 2), (2, 4), (1, 3, 4), (1, 2, 3, 4)]:
        g = interaction_contrast(design, fs)
        prod = np.ones(design.J, dtype=int)
        for k in fs:
            prod *= main_effect_contrast(design, k).signs
        assert (g.signs == prod).all()
        assert g.factors == tuple(sorted(fs))


def test_contrasts_mutually_orthogonal():
    design = enumerate_assignments(3)
    sets = [s for r in (1, 2, 3) for s in itertools.combinations((1, 2, 3), r)]
    for a, b in itertools.combinations(sets, 2):
        ga = interaction_contrast(design, a).signs.astype(int)
        gb = interaction_contrast(design, b).signs.astype(int)
        assert ga @ gb == 0


def test_interaction_rejects_bad_factor_sets():
    design = enumerate_assignments(2)
    with pytest.raises(InvalidFactorError):
        interaction_contrast(design, ())
    with pytest.raises(InvalidFactorError):
        interaction_contrast(design, (1, 1))
    with pytest.raises(InvalidFactorError):
        interaction_contrast(design, (1, 3))


def test_set_and_strip_factor():
    z = (-1, 1, -1)
    assert strip_factor(z, 2) == (-1, -1)
    assert strip_factor((1,), 1) == ()
    with pytest.raises(InvalidFactorError):
        strip_factor(z, 4)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=60)
def test_context_arms_agree_with_tuple_reconstruction(K, data):
    design = enumerate_assignments(K)
    k = data.draw(st.integers(min_value=1, max_value=K))
    contexts = contexts_for(design, k)
    assert len(contexts) == design.J // 2
    arms = context_arms(design, k)
    assert arms.shape == (2, len(contexts)) and arms.dtype == np.intp
    for c_index, ctx in enumerate(contexts):
        j_minus, j_plus = (int(j) for j in arms[:, c_index])
        assert strip_factor(design.assignment(j_minus), k) == ctx
        assert strip_factor(design.assignment(j_plus), k) == ctx
        assert design.assignment(j_minus)[k - 1] == -1
        assert design.assignment(j_plus)[k - 1] == 1


def test_every_arm_appears_once_per_factor():
    design = enumerate_assignments(3)
    for k in (1, 2, 3):
        assert sorted(context_arms(design, k).ravel().tolist()) == list(range(design.J))


def test_joint_context_arms_levels():
    want = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    for K in (2, 3, 4, 5):
        design = enumerate_assignments(K)
        for k, k2 in itertools.permutations(range(1, K + 1), 2):
            contexts = contexts_for(design, k, k2)
            assert len(contexts) == design.J // 4
            arms = context_arms(design, k, k2)
            assert arms.shape == (4, len(contexts)) and arms.dtype == np.intp
            assert sorted(arms.ravel().tolist()) == list(range(design.J))
            for c_index, ctx in enumerate(contexts):
                for arm, (lk, lk2) in zip(arms[:, c_index].tolist(), want):
                    z = design.assignment(arm)
                    assert z[k - 1] == lk
                    assert z[k2 - 1] == lk2
                    rest = strip_factor(strip_factor(z, max(k, k2)), min(k, k2))
                    assert rest == ctx


def test_joint_contexts_reject_same_factor():
    design = enumerate_assignments(3)
    with pytest.raises(InvalidFactorError, match="two distinct factors, got 1 twice"):
        contexts_for(design, 1, 1)
    assert contexts_for(design, 1, 2) == [(-1,), (1,)]
    for fn in (contexts_for, context_arms):  # no factor, or more than two
        for ks in ((), (1, 2, 3)):
            with pytest.raises(InvalidFactorError, match="one factor or two"):
                fn(design, *ks)


def test_cached_tables_refuse_bool_and_float_keys():
    # memo keys carry their types: True, 1 and 1.0 are three keys, so a bool
    # or float argument equal to a kept one still reaches the validation
    assert enumerate_assignments(1).K == 1
    for bad in (True, 1.0):
        with pytest.raises(InvalidDesignError):
            enumerate_assignments(bad)
    design = enumerate_assignments(2)
    with pytest.raises(InvalidDesignError):
        enumerate_assignments(2.0)
    endpoint_functions(design, 1, "exclusion", profile_index=0)
    with pytest.raises(InvalidFactorError):
        endpoint_functions(design, True, "exclusion", profile_index=0)
    context_arms(design, 1)
    context_arms(design, 1, 2)
    with pytest.raises(InvalidFactorError):
        context_arms(design, True)
    with pytest.raises(InvalidFactorError):
        context_arms(design, 1, 2.0)
    with pytest.raises(InvalidFactorError):
        main_effect_contrast(design, True)
    assert enumerate_assignments(3) is enumerate_assignments(3)


def test_enumerate_assignments_refuses_a_list_with_the_package_error():
    with pytest.raises(InvalidDesignError, match=r"K must be an integer, got \[2\]"):
        enumerate_assignments([2])


def test_main_effect_contrast_refuses_a_list_with_the_package_error():
    with pytest.raises(InvalidFactorError, match=r"factor \[1\] outside 1..2"):
        main_effect_contrast(enumerate_assignments(2), [1])


def test_context_arms_refuses_a_list_with_the_package_error():
    design = enumerate_assignments(3)
    for ks in (([1],), (1, [2])):
        with pytest.raises(InvalidFactorError, match=r"factor \[\d\] outside 1..3"):
            context_arms(design, *ks)


def test_endpoint_functions_refuses_a_list_with_the_package_error():
    design = enumerate_assignments(2)
    kept = dict(design._memo)
    with pytest.raises(InvalidFactorError, match=r"factor \[1\] outside 1..2"):
        endpoint_functions(design, [1], "exclusion", profile_index=0)
    assert design._memo.keys() == kept.keys()  # past the memo, nothing kept


def test_memoized_runs_a_function_that_raises_type_error_once():
    calls = []

    @_memoized
    def fails(design, x):
        calls.append(x)
        raise TypeError("the function's own error")

    design = enumerate_assignments(2)
    kept = dict(design._memo)
    with pytest.raises(TypeError, match="the function's own error"):
        fails(design, 1)
    with pytest.raises(TypeError, match="unexpected keyword"):
        fails(design, 1, y=2)  # a wrong keyword never reaches the body
    assert calls == [1]
    with pytest.raises(TypeError, match="the function's own error"):
        fails(design, [1])  # unhashable: past the memo, to the body once
    assert calls == [1, [1]]
    assert design._memo.keys() == kept.keys()


def test_memo_keeps_no_entry_for_an_iterator_argument():
    design = enumerate_assignments(3)
    interaction_contrast(design, (1, 2))
    size = len(design._memo)
    for _ in range(1000):
        assert interaction_contrast(design, iter((1, 2))).factors == (1, 2)
    assert len(design._memo) == size


def test_lru_cache_is_left_to_the_scalar_keyed_functions():
    # tables keyed by a design, population or dataset live on its _memo
    found = set()
    for info in pkgutil.iter_modules(factorbounds.__path__):
        module = importlib.import_module(f"factorbounds.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                found.add(f"{info.name}.{name}")
    assert found == {"design._level_tuples", "estimate._im_bracket"}


def test_no_source_line_is_longer_than_120_characters():
    # so a shorter package cannot come from joining statements onto long lines
    for path in sorted(pathlib.Path(factorbounds.__file__).parent.glob("*.py")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            assert len(line) <= 120, f"{path.name}:{n} has {len(line)} characters"


def test_cached_tables_are_read_only():
    design = enumerate_assignments(3)
    assert context_arms(design, 2) is context_arms(design, 2)
    for arms in (context_arms(design, 2), context_arms(design, 1, 3)):
        with pytest.raises(ValueError):
            arms[0, 0] = 7
    with pytest.raises(ValueError):
        main_effect_contrast(design, 1).signs[0] = 1
    ends = endpoint_functions(design, 1, "exclusion", profile_index=2)
    assert endpoint_functions(design, 1, "exclusion", profile_index=2) is ends
    for coefficients in (ends.a, ends.a0, ends.b):  # a record's arrays: the map freezes its own
        with pytest.raises(ValueError):
            coefficients[..., 0] = 7.0
    contexts = contexts_for(design, 1)
    contexts.clear()  # a fresh list each call; the cached table is untouched
    assert len(contexts_for(design, 1)) == 4
