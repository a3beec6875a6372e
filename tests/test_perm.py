import pytest

from cpgroups import Permutation, parse_cycles

from oracles import slow_perm_order


class TestParseCycles:
    def test_disjoint_transpositions(self):
        assert parse_cycles("(1 2)(3 4)", 4).images == (1, 0, 3, 2)

    def test_empty_word_is_identity(self):
        assert parse_cycles("", 3).images == (0, 1, 2)

    def test_single_three_cycle(self):
        assert parse_cycles("(1 2 3)", 3).images == (1, 2, 0)

    def test_commas_accepted(self):
        assert parse_cycles("(1,2,3)", 3) == parse_cycles("(1 2 3)", 3)

    def test_non_disjoint_cycles_compose_left_to_right(self):
        # (1 2) then (1 3) sends 1->2, 2->3, 3->1
        assert parse_cycles("(1 2)(1 3)", 3).images == (1, 2, 0)

    def test_point_out_of_range(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 5)", 4)

    def test_malformed_parentheses(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2", 4)
        with pytest.raises(ValueError):
            parse_cycles("1 2)", 4)

    def test_repeated_point_in_cycle(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2 1)", 3)

    def test_junk_between_cycles(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2) x (3 4)", 4)


class TestCompose:
    def test_two_transpositions_give_three_cycle(self):
        p = parse_cycles("(1 2)", 3)
        q = parse_cycles("(1 3)", 3)
        assert (p * q).order() == 3

    def test_identity_is_neutral(self):
        p = parse_cycles("(1 3 2)", 4)
        e = Permutation.identity(4)
        assert p * e == p
        assert e * p == p

    def test_inverse_cancels(self):
        p = parse_cycles("(1 2 3)(4 5)", 5)
        assert p * p.inverse() == Permutation.identity(5)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3) * Permutation.identity(4)

    def test_convention_applies_left_factor_first(self):
        p = parse_cycles("(1 2)", 3)  # 1 -> 2
        q = parse_cycles("(2 3)", 3)  # 2 -> 3
        assert (p * q)(0) == 2


class TestOrder:
    def test_involution(self):
        assert parse_cycles("(1 2)(3 4)", 4).order() == 2

    def test_identity(self):
        assert Permutation.identity(5).order() == 1

    def test_lcm_of_cycle_lengths(self):
        p = parse_cycles("(1 2 3 4 5 6)(7 8)", 8)
        assert p.order() == 6
        assert p.order() == slow_perm_order(p)

    @pytest.mark.parametrize("word,degree", [("(1 2 3)", 4), ("(1 4)(2 3)", 4), ("(1 2 3 4 5)", 6)])
    def test_matches_repeated_composition(self, word, degree):
        p = parse_cycles(word, degree)
        assert p.order() == slow_perm_order(p)


class TestValidation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Permutation([])

    def test_cycle_string_round_trip(self):
        p = parse_cycles("(1 3)(2 5 4)", 5)
        assert parse_cycles(p.cycle_string(), 5) == p

    def test_identity_cycle_string(self):
        assert Permutation.identity(3).cycle_string() == "e"
