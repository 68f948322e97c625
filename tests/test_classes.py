import pytest

from grassperm import classes, core
from grassperm.errors import DomainError


class TestPredicates:
    def test_identity_is_both(self):
        assert classes.is_bigrassmannian((1, 2, 3))
        assert classes.is_grassmannian_involution((1, 2, 3))

    def test_block_swap(self):
        assert classes.is_bigrassmannian((3, 4, 1, 2))
        assert classes.is_grassmannian_involution((3, 4, 1, 2))

    def test_2413_is_not_bigrassmannian(self):
        assert not classes.is_bigrassmannian((2, 4, 1, 3))
        assert not classes.is_grassmannian_involution((2, 4, 1, 3))

    def test_all_of_size_three_are_bigrassmannian(self):
        for p in core.grassmannian_permutations(3):
            assert classes.is_bigrassmannian(p)

    def test_rejects_non_grassmannian(self):
        with pytest.raises(DomainError):
            classes.is_bigrassmannian((3, 2, 1))
        with pytest.raises(DomainError):
            classes.is_grassmannian_involution((3, 2, 1))

    def test_bigrassmannian_is_2413_avoidance(self, harness):
        assert harness("classes.bigrassmannian_iff_avoids_2413", n_max=8).passed

    def test_involution_word_form(self, harness):
        assert harness("classes.involution_iff_word_form", n_max=8).passed


class TestBigrassmannianCounts:
    def test_total_spot(self):
        assert classes.bigrassmannian_count(3) == 5

    def test_totals_vs_oracle(self, harness):
        assert harness("classes.class_totals_vs_oracle", perm_cap=7).passed

    def test_avoiders_spot(self):
        assert classes.bigrassmannian_avoider_count(3, 4) == 1

    def test_avoiders_at_pattern_size(self):
        from grassperm.counting import binomial

        for k in range(2, 8):
            assert classes.bigrassmannian_avoider_count(k, k) == binomial(k + 1, 3)

    def test_avoiders_vs_oracle(self, harness):
        assert harness("classes.class_avoiders_vs_oracle", k_max=6, perm_cap=7).passed

    def test_rejects_k_one(self):
        with pytest.raises(DomainError):
            classes.bigrassmannian_avoider_count(1, 3)


class TestOddBigrassmannian:
    @pytest.mark.parametrize("m,value", [(4, 5), (3, 2), (1, 0), (2, 1)])
    def test_total_spots(self, m, value):
        assert classes.odd_bigrassmannian_count(m) == value

    def test_totals_vs_oracle(self, harness):
        assert harness("classes.class_totals_vs_oracle", perm_cap=7).passed

    def test_avoider_reduction_spot(self):
        # m - k even reduces to size 2k - m
        assert classes.odd_bigrassmannian_avoider_count(3, 5) == 0

    def test_avoiders_vs_oracle(self, harness):
        assert harness("classes.class_avoiders_vs_oracle", k_max=6, perm_cap=7).passed


class TestInvolutions:
    def test_total_spot(self):
        assert classes.involution_count(3) == 3

    def test_totals_vs_oracle(self, harness):
        assert harness("classes.class_totals_vs_oracle", perm_cap=7).passed

    def test_avoiders_spot(self):
        assert classes.involution_avoider_count(3, 4) == 1

    def test_avoiders_vs_oracle(self, harness):
        assert harness("classes.class_avoiders_vs_oracle", k_max=6, perm_cap=7).passed


class TestOddInvolutions:
    def test_total_spot(self):
        assert classes.odd_involution_count(4) == 3

    def test_totals_vs_oracle(self, harness):
        assert harness("classes.class_totals_vs_oracle", perm_cap=7).passed

    def test_shift_relation(self, harness):
        assert harness("classes.odd_involution_shift_relation", m_max=40).passed

    def test_avoiders_vs_oracle(self, harness):
        assert harness("classes.class_avoiders_vs_oracle", k_max=6, perm_cap=7).passed
