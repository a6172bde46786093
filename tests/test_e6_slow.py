import pytest

from conftest import get_algebra, get_rs
from liesph import ideals as I
from liesph import spherical as S
from liesph import weyl as W
from liesph.roots import has_summing_pair


@pytest.mark.slow
def test_e6_theorem1_exhaustive():
    rs = get_rs("E6")
    rep = S.verify_theorem1(rs, get_algebra("E6"))
    assert rep["elements"] == 51840
    assert rep["mismatches"] == []
    assert rep["decider_count"] == rep["spherical_count"] == 662


@pytest.mark.slow
def test_e6_mask_deciders_match_pair_scans():
    # simply laced, full commutativity is commutativity
    rs = get_rs("E6")
    for e in W.enumerate_weyl(rs):
        fc = W.is_fc_inv(e)
        assert fc == W.is_fc_inv_base_pair(e) == W.is_commutative_inv(e), e.word
        assert fc == (not has_summing_pair(rs, e.inv.indices())), e.word


@pytest.mark.slow
def test_e6_theorem2_exhaustive():
    # 833 is the type-E6 Catalan number (Cellini-Papi); the abelian ideals
    # number 2^6 (Peterson)
    rep = I.verify_theorem2(get_rs("E6"), get_algebra("E6"))
    assert rep["ideals"] == 833
    assert rep["abelian"] == rep["spherical"] == rep["fc"] == 64
    assert rep["mismatches"] == []
