"""Tests for repro.incentives.contribution."""

import numpy as np
import pytest

from repro.errors import IncentiveError
from repro.incentives import leave_one_out, shapley_monte_carlo
from tests.oracles import shapley_exact


def additive_value(weights):
    """A value function where each owner adds a fixed amount (easy ground truth)."""

    def value_fn(subset):
        return sum(weights[i] for i in subset)

    return value_fn


class TestLeaveOneOut:
    def test_additive_game_recovers_weights(self):
        weights = [0.1, 0.3, 0.05, 0.2]
        report = leave_one_out(4, additive_value(weights))
        for owner, weight in enumerate(weights):
            assert np.isclose(report.scores[owner], weight)
        assert np.isclose(report.full_value, sum(weights))

    def test_drop_values_recorded(self):
        weights = [0.1, 0.3]
        report = leave_one_out(2, additive_value(weights))
        assert np.isclose(report.drop_values[0], 0.3)
        assert np.isclose(report.drop_values[1], 0.1)

    def test_least_useful_owner(self):
        report = leave_one_out(3, additive_value([0.5, 0.01, 0.2]))
        assert report.least_useful() == 1

    def test_number_of_evaluations(self):
        report = leave_one_out(5, additive_value([1] * 5))
        # One full evaluation plus one per owner (cache removes duplicates).
        assert report.num_evaluations == 6

    def test_a_known_full_value_is_not_evaluated_again(self):
        weights = [0.1, 0.3, 0.05, 0.2]
        asked = []

        def value_fn(subset):
            asked.append(subset)
            return additive_value(weights)(subset)

        plain = leave_one_out(4, additive_value(weights))
        seeded = leave_one_out(4, value_fn, full_value=plain.full_value)
        assert seeded == plain  # field for field, num_evaluations == 5 included
        assert seeded.num_evaluations == 5
        assert sorted(asked) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_redundant_owner_gets_zero(self):
        # Value saturates at 1.0 once any two owners participate.
        def value_fn(subset):
            return 1.0 if len(subset) >= 2 else 0.5 * len(subset)

        report = leave_one_out(3, value_fn)
        assert all(np.isclose(score, 0.0) for score in report.scores.values())

    def test_zero_owners_rejected(self):
        with pytest.raises(IncentiveError):
            leave_one_out(0, additive_value([]))

    def test_to_dict(self):
        report = leave_one_out(2, additive_value([0.1, 0.2]))
        payload = report.to_dict()
        assert payload["method"] == "leave_one_out"
        assert set(payload["scores"]) == {"0", "1"}


class TestShapleyExact:
    def test_additive_game_recovers_weights(self):
        weights = [0.4, 0.1, 0.25]
        report = shapley_exact(3, additive_value(weights))
        for owner, weight in enumerate(weights):
            assert np.isclose(report.scores[owner], weight)

    def test_efficiency_axiom(self):
        # Shapley values sum to v(N) - v(empty).
        def value_fn(subset):
            return len(subset) ** 0.5

        report = shapley_exact(4, value_fn)
        assert np.isclose(sum(report.scores.values()), 2.0)

    def test_symmetry_axiom(self):
        def value_fn(subset):
            return float(len(subset) >= 2)

        report = shapley_exact(3, value_fn)
        values = list(report.scores.values())
        assert np.allclose(values, values[0])

    def test_too_many_owners_rejected(self):
        with pytest.raises(IncentiveError):
            shapley_exact(20, additive_value([1] * 20))

    def test_twelve_owners_are_enumerated_and_thirteen_refused(self):
        report = shapley_exact(12, additive_value([1.0] * 12))
        assert report.scores == pytest.approx({owner: 1.0 for owner in range(12)})
        with pytest.raises(IncentiveError):
            shapley_exact(13, additive_value([1.0] * 13))

    def test_duplicated_contributions_split_evenly(self):
        # Two identical owners sharing the same information should split credit;
        # LOO gives both zero, Shapley gives both half.
        def value_fn(subset):
            has_info = 0.8 if (0 in subset or 1 in subset) else 0.0
            return has_info

        loo = leave_one_out(2, value_fn)
        shapley = shapley_exact(2, value_fn)
        assert np.isclose(loo.scores[0], 0.0)
        assert np.isclose(shapley.scores[0], 0.4)
        assert np.isclose(shapley.scores[1], 0.4)


class TestShapleyMonteCarlo:
    def test_approximates_exact_on_additive_game(self):
        weights = [0.3, 0.1, 0.2, 0.15]
        exact = shapley_exact(4, additive_value(weights))
        approx = shapley_monte_carlo(4, additive_value(weights), num_permutations=100, rng=0)
        for owner in range(4):
            assert abs(exact.scores[owner] - approx.scores[owner]) < 1e-9  # additive => exact

    def test_efficiency_holds_per_permutation(self):
        def value_fn(subset):
            return len(subset) ** 2 / 16

        report = shapley_monte_carlo(4, value_fn, num_permutations=50, rng=1)
        assert np.isclose(sum(report.scores.values()), value_fn((0, 1, 2, 3)))

    def test_seeded_reproducibility(self):
        value_fn = additive_value([0.1, 0.4, 0.2])
        a = shapley_monte_carlo(3, value_fn, num_permutations=20, rng=7)
        b = shapley_monte_carlo(3, value_fn, num_permutations=20, rng=7)
        assert a.scores == b.scores

    def test_invalid_permutations_rejected(self):
        with pytest.raises(IncentiveError):
            shapley_monte_carlo(3, additive_value([1, 1, 1]), num_permutations=0)
