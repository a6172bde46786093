import pytest

from conftest import get_algebra, get_rs
from liesph import ideals as I
from liesph import spherical as S
from liesph import weyl as W


@pytest.mark.slow
def test_e6_theorem1_exhaustive():
    rs = get_rs("E6")
    rep = S.verify_theorem1(rs, get_algebra("E6"), budget=60000)
    assert rep["elements"] == 51840
    assert rep["mismatches"] == []
    assert rep["decider_count"] == rep["spherical_count"] == 662


@pytest.mark.slow
def test_e6_simply_laced_fc_equals_commutative_sampled():
    rs = get_rs("E6")
    for k, e in enumerate(W.enumerate_weyl(rs, budget=60000)):
        if k % 97 == 0:
            assert W.is_fc_inv_base_pair(e) == W.is_commutative_inv(e)


@pytest.mark.slow
def test_e6_theorem2_exhaustive():
    # 833 is the type-E6 Catalan number (Cellini-Papi); the abelian ideals
    # number 2^6 (Peterson)
    rep = I.verify_theorem2(get_rs("E6"), get_algebra("E6"))
    assert rep["ideals"] == 833
    assert rep["abelian"] == rep["spherical"] == rep["fc"] == 64
    assert rep["mismatches"] == []
