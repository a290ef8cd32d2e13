"""PFNM's GEMM cost matrix and reduced fold against the broadcast reference.

``repro.fl.oneshot.pfnm`` computes squared distances as
``|c|^2 + |m|^2 - 2 c.m`` from products it reads off owner-pair blocks or
computes for merged atoms, hands the Hungarian solver only the rows and atoms
whose assignment is in doubt, and keeps the global atoms in an atom store
written in place.  The formula it replaced -- the ``J x L x D`` difference
tensor, the whole matrix solved, one ``vstack`` per new atom -- lives on here
only, as the oracle.  The arithmetic order changed, so costs are compared
within ``RELATIVE`` of the terms that were added up; the atoms are averaged by
unchanged arithmetic, so they must be *equal* whenever the assignment is.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.errors import AggregationError
from repro.fl.model_update import ModelUpdate
from repro.fl.oneshot import pfnm
from repro.fl.oneshot.pfnm import PFNMAggregator, PFNMConfig, _Atoms, _Client
from repro.ml import MLP

#: float64 carries ~1e-16; a few hundred accumulated terms stay far inside this.
RELATIVE = 1e-9


def atoms_of(global_neurons, global_counts):
    """An atom store holding copies of ``global_neurons`` as rows, with ``global_counts``."""
    atoms = _Atoms(global_neurons.shape[1])
    atoms.append(_Client(global_neurons), np.arange(global_neurons.shape[0]))
    atoms.counts[:] = global_counts
    return atoms


def match_cost_matrix(client_neurons, global_neurons, global_counts, config, allow_new):
    """``pfnm._match_cost_matrix`` over plain arrays."""
    client, atoms = _Client(client_neurons), atoms_of(global_neurons, global_counts)
    return pfnm._match_cost_matrix(client, atoms, atoms.products(client, None), config, allow_new)


def fold_in_client(client_neurons, global_neurons, global_counts, config, max_global):
    """``pfnm._fold_in_client`` over plain arrays: (atoms, counts, assignment)."""
    atoms = atoms_of(global_neurons, global_counts)
    assignment = pfnm._fold_in_client(_Client(client_neurons), atoms, config, max_global)
    return atoms.neurons(np.arange(len(atoms))), atoms.counts, assignment


def oracle_cost_matrix(client_neurons, global_neurons, global_counts, config, allow_new):
    """The broadcast formula: the cost matrix as it was before the GEMM form."""
    num_client = client_neurons.shape[0]
    num_global = global_neurons.shape[0]
    sigma_sq = config.sigma**2
    sigma0_sq = config.sigma0**2
    columns = []
    if num_global:
        diff = client_neurons[:, None, :] - global_neurons[None, :, :]
        squared = np.sum(diff**2, axis=2)
        counts = global_counts.reshape(1, num_global)
        columns.append(squared / (2.0 * sigma_sq) - np.log(counts + config.gamma))
    if allow_new:
        self_cost = np.sum(client_neurons**2, axis=1) / (2.0 * (sigma_sq + sigma0_sq))
        new_penalty = self_cost - np.log(config.gamma / (num_global + 1.0))
        new_block = np.tile(new_penalty.reshape(num_client, 1), (1, allow_new))
        columns.append(new_block + np.arange(allow_new).reshape(1, allow_new) * 1e-6)
    return np.concatenate(columns, axis=1) if columns else np.zeros((num_client, 0))


def oracle_fold(client_neurons, global_neurons, global_counts, config, max_global):
    """The fold as it was: the whole oracle matrix solved, one ``vstack`` per new atom."""
    num_client = client_neurons.shape[0]
    num_global = global_neurons.shape[0]
    allow_new = max(0, min(num_client, max_global - num_global))
    cost = oracle_cost_matrix(client_neurons, global_neurons, global_counts, config, allow_new)
    neurons, counts = global_neurons.copy(), global_counts.copy()
    assignment = np.zeros(num_client, dtype=np.int64)
    for row, col in zip(*linear_sum_assignment(cost)):
        if col >= num_global:
            neurons = np.vstack([neurons, client_neurons[row]])
            counts = np.append(counts, 1.0)
            assignment[row] = neurons.shape[0] - 1
            continue
        neurons[col] = (neurons[col] * counts[col] + client_neurons[row]) / (counts[col] + 1.0)
        counts[col] += 1.0
        assignment[row] = col
    return neurons, counts, assignment


def check_against_oracle(client_neurons, global_neurons, global_counts, config, allow_new,
                         cost=None):
    """The three properties every cost matrix must have; returns the matrix.

    ``cost`` is the matrix to check (by default, :func:`match_cost_matrix`'s).
    """
    if cost is None:
        cost = match_cost_matrix(client_neurons, global_neurons, global_counts, config, allow_new)
    oracle = oracle_cost_matrix(client_neurons, global_neurons, global_counts, config, allow_new)
    assert cost.shape == oracle.shape
    num_global = global_neurons.shape[0]
    # The largest quantity either formula adds up, in cost units.
    scale = 1.0 + (
        np.sum(client_neurons**2, axis=1).max(initial=0.0)
        + np.sum(global_neurons**2, axis=1).max(initial=0.0)
    ) / (2.0 * config.sigma**2)
    np.testing.assert_allclose(cost, oracle, rtol=RELATIVE, atol=RELATIVE * scale)
    # New-atom columns never went through the GEMM: they must not move at all.
    assert np.array_equal(cost[:, num_global:], oracle[:, num_global:])
    # Squared distances stay >= 0.  Rounding is monotonic, so d >= 0 gives
    # d/(2s^2) - log(n + gamma) >= -log(n + gamma) exactly, with no tolerance.
    floor = -np.log(global_counts.reshape(1, num_global) + config.gamma)
    assert np.all(cost[:, :num_global] >= floor)
    # Whatever the solver picks on the new matrix is optimal on the oracle's.
    if cost.shape[1]:
        picked = oracle[linear_sum_assignment(cost)].sum()
        best = oracle[linear_sum_assignment(oracle)].sum()
        assert abs(picked - best) <= RELATIVE * scale * max(cost.shape)
    return cost


@st.composite
def neuron_sets(draw):
    """(client, global, counts): random rows salted with duplicates and zero rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_client = draw(st.integers(1, 7))
    num_global = draw(st.integers(0, 9))
    dim = draw(st.integers(1, 12))
    magnitude = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e4]))
    client = rng.normal(size=(num_client, dim)) * magnitude
    atoms = rng.normal(size=(num_global, dim)) * magnitude
    stacked = np.vstack([client, atoms])
    # Each edit: overwrite one row with a copy of another (a neuron two
    # parties share, or one repeated inside a party) or with zeros (a dead unit).
    for _ in range(draw(st.integers(0, 4))):
        target = draw(st.integers(0, len(stacked) - 1))
        source = draw(st.integers(-1, len(stacked) - 1))
        stacked[target] = 0.0 if source < 0 else stacked[source]
    counts = np.array(
        draw(st.lists(st.integers(1, 6), min_size=num_global, max_size=num_global)), dtype=float
    )
    return stacked[:num_client].copy(), stacked[num_client:].copy(), counts


configs = st.builds(
    PFNMConfig,
    sigma=st.sampled_from([0.05, 0.3, 2.0]),
    sigma0=st.sampled_from([1.0, 10.0]),
    gamma=st.sampled_from([0.5, 20.0]),
)


class TestCostMatrixAgainstBroadcastOracle:
    @given(neuron_sets(), configs, st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_nonnegative_and_equally_optimal(self, neurons, config, allow_new):
        check_against_oracle(*neurons, config, min(allow_new, neurons[0].shape[0]))

    def test_shared_neuron_costs_exactly_the_prior_term(self):
        # The GEMM form leaves a duplicate's distance a rounding error off
        # zero, on either side; the clip is what keeps it from going negative.
        rng = np.random.default_rng(5)
        atoms = rng.normal(size=(40, 795)) * 7.0
        client = atoms[::-1][:25].copy()
        unclipped = (
            np.sum(client**2, axis=1)[:, None]
            + np.sum(atoms**2, axis=1)[None, :]
            - 2.0 * client @ atoms.T
        )
        assert unclipped.min() < 0.0, "this input no longer exercises the clip"
        config = PFNMConfig()
        cost = check_against_oracle(client, atoms, np.ones(40), config, 0)
        shared = cost[np.arange(25), 39 - np.arange(25)]
        np.testing.assert_allclose(shared, -np.log(1.0 + config.gamma), rtol=0, atol=1e-9)


class TestAggregateCallsAgainstOracle:
    """Every cost matrix the aggregator really asks for: the grand coalition's
    folds, which compute the owner-pair blocks, and then
    every leave-one-out drop's, which read them back."""

    @given(
        st.sampled_from([(9, 5, 3), (7, 6, 3), (6, 4, 2)]),
        st.lists(st.integers(0, 3), min_size=2, max_size=5),
        st.sampled_from([1.0, 1.5, 8.0]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_fold_of_an_aggregation(self, layer_sizes, model_seeds, factor, kill_a_unit):
        # Repeated seeds are identical clients: every neuron has an exact twin.
        updates = []
        for index, seed in enumerate(model_seeds):
            model = MLP(layer_sizes, seed=seed)
            if kill_a_unit:
                model.layers[0].weights[:, 0] = 0.0
                model.layers[0].biases[0] = 0.0
                model.layers[1].weights[0, :] = 0.0
            updates.append(
                ModelUpdate.from_model(model, num_samples=10 + index, client_id=f"c{index}")
            )
        allowed_new = []
        real_cost_matrix = pfnm._match_cost_matrix

        def checking(client, atoms, products, config, allow_new):
            allowed_new.append(allow_new)
            cost = real_cost_matrix(client, atoms, products, config, allow_new)
            return check_against_oracle(client.neurons, atoms.neurons(np.arange(len(atoms))),
                                        atoms.counts, config, allow_new, cost=cost)

        config = PFNMConfig(max_global_neurons_factor=factor)
        aggregator = PFNMAggregator(config)
        drops = [updates[:index] + updates[index + 1:] for index in range(len(updates))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pfnm, "_match_cost_matrix", checking)
            result = aggregator.aggregate(updates)
            dropped = [aggregator.aggregate(drop) for drop in drops]
        hidden_layers = len(layer_sizes) - 2
        num = len(updates)
        assert len(allowed_new) == hidden_layers * ((num - 1) + num * (num - 2))
        if factor == 1.0:
            # Width cap: no fold may open an atom, so the width cannot grow.
            assert set(allowed_new) == {0}
            assert result.predictor.layer_sizes == tuple(layer_sizes)
        # Read back or computed afresh, the products fuse the same model.
        for drop, got in zip(drops, dropped):
            want = PFNMAggregator(config).aggregate(drop).predictor.get_parameters()
            for got_layer, want_layer in zip(got.predictor.get_parameters(), want):
                for key in ("weights", "biases"):
                    assert np.array_equal(got_layer[key], want_layer[key])


class TestFoldAgainstVstackOracle:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(0, 9),
        st.integers(1, 9),
        st.integers(0, 24),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_atoms_counts_and_assignment(self, seed, num_client, extra_atoms, dim, max_global):
        # Continuous random rows have no cost ties, so the solver has one
        # answer.  The global model holds at least as many atoms as the client
        # has neurons, as it does after the first fold of an aggregation;
        # ``max_global`` ranges from below the current width (the width cap)
        # to room for every client neuron.
        num_global = num_client + extra_atoms
        rng = np.random.default_rng(seed)
        client = rng.normal(size=(num_client, dim))
        atoms = rng.normal(size=(num_global, dim))
        counts = rng.integers(1, 5, size=num_global).astype(float)
        config = PFNMConfig()
        before = atoms.copy(), counts.copy()
        got = fold_in_client(client, atoms, counts, config, max_global)
        want = oracle_fold(client, atoms, counts, config, max_global)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert np.array_equal(got_array, want_array)
        assert np.array_equal(atoms, before[0]) and np.array_equal(counts, before[1])
        assert got[0].shape[0] <= max(num_global, max_global)

    def test_fewer_atoms_than_client_neurons_is_refused(self):
        rng = np.random.default_rng(0)
        with pytest.raises(AggregationError, match="5 client neurons into 3 global atoms"):
            fold_in_client(
                rng.normal(size=(5, 4)), rng.normal(size=(3, 4)), np.ones(3), PFNMConfig(), 100
            )


@st.composite
def mixed_folds(draw):
    """(client, atoms, counts, config, max_global, twins) for one fold.

    Client rows are near-copies of atoms (an atom can win them), far rows (no
    atom can: they open new atoms outright) or, optionally, an exact twin of
    the row before.  Which twin of a pair the solver matches is a tie that
    the full and the reduced problem may break differently; a twin pair sits
    on adjacent rows so that either choice leaves the same atoms and counts.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = draw(configs)
    num_client = draw(st.integers(1, 8))
    num_global = num_client + draw(st.integers(0, 8))
    dim = draw(st.integers(1, 10))
    atoms = rng.normal(size=(num_global, dim))
    counts = rng.integers(1, 5, size=num_global).astype(float)
    noise = draw(st.sampled_from([1e-3, 0.1, 1.0])) * config.sigma
    near = np.array(draw(st.lists(st.booleans(), min_size=num_client, max_size=num_client)))
    client = rng.normal(size=(num_client, dim)) * 30.0
    sources = rng.integers(0, num_global, size=num_client)
    client[near] = atoms[sources[near]] + rng.normal(size=(int(near.sum()), dim)) * noise
    twins = num_client > 1 and draw(st.booleans())
    if twins:
        row = draw(st.integers(0, num_client - 2))
        client[row + 1] = client[row]
    if draw(st.booleans()):
        max_global = num_global + num_client + draw(st.integers(0, 3))
    else:
        max_global = num_global + draw(st.integers(0, num_client - 1))
    return client, atoms, counts, config, max_global, twins


def spy_on_the_solver(monkeypatch):
    """Record the shape of every matrix handed to ``pfnm.linear_sum_assignment``."""
    shapes = []
    solve = pfnm.linear_sum_assignment

    def spy(cost):
        shapes.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(pfnm, "linear_sum_assignment", spy)
    return shapes


class TestReducedSolveAgainstFullOracle:
    @given(mixed_folds())
    @settings(max_examples=300, deadline=None)
    def test_same_fold_as_solving_the_whole_matrix(self, fold):
        client, atoms, counts, config, max_global, twins = fold
        got = fold_in_client(client, atoms, counts, config, max_global)
        want = oracle_fold(client, atoms, counts, config, max_global)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        if not twins:
            assert np.array_equal(got[2], want[2])
        # A new atom's index is its new-atom column, so an assignment reads
        # its own cost straight off the oracle matrix.
        num_global = atoms.shape[0]
        allow_new = max(0, min(client.shape[0], max_global - num_global))
        oracle = oracle_cost_matrix(client, atoms, counts, config, allow_new)
        rows = np.arange(client.shape[0])
        scale = 1.0 + (
            np.sum(client**2, axis=1).max() + np.sum(atoms**2, axis=1).max()
        ) / (2.0 * config.sigma**2)
        assert abs(oracle[rows, got[2]].sum() - oracle[rows, want[2]].sum()) <= (
            RELATIVE * scale * max(oracle.shape)
        )

    @staticmethod
    def atoms_and_far_rows(num_client, num_global=10, dim=6):
        rng = np.random.default_rng(3)
        atoms = rng.normal(size=(num_global, dim))
        return rng.normal(size=(num_client, dim)) * 30.0, atoms, rng.integers(1, 5, num_global) * 1.0

    def check(self, monkeypatch, client, atoms, counts, max_global):
        shapes = spy_on_the_solver(monkeypatch)
        got = fold_in_client(client, atoms, counts, PFNMConfig(), max_global)
        want = oracle_fold(client, atoms, counts, PFNMConfig(), max_global)
        for got_array, want_array in zip(got, want):
            assert np.array_equal(got_array, want_array)
        return shapes, got

    def test_every_row_forced_opens_new_atoms_without_a_solve(self, monkeypatch):
        client, atoms, counts = self.atoms_and_far_rows(6)
        shapes, (neurons, _, assignment) = self.check(monkeypatch, client, atoms, counts, 100)
        assert shapes == []
        assert list(assignment) == list(range(10, 16))
        assert np.array_equal(neurons[10:], client)

    def test_mixed_rows_solve_only_the_rows_and_atoms_in_question(self, monkeypatch):
        client, atoms, counts = self.atoms_and_far_rows(6)
        rng = np.random.default_rng(4)
        client[[0, 2, 3]] = atoms[[5, 1, 7]] + rng.normal(size=(3, 6)) * 1e-3
        shapes, (_, _, assignment) = self.check(monkeypatch, client, atoms, counts, 100)
        # Three open rows against their three atoms and the last three new columns.
        assert shapes == [(3, 6)]
        assert list(assignment) == [5, 10, 1, 7, 11, 12]

    def test_a_match_priced_between_new_columns_is_kept(self, monkeypatch):
        # Five forced rows hold new columns 0..4, so in the full solve the
        # last row's new atom would cost column 5.  Its match to atom 2 is
        # priced 2.5e-6 above column 0 and below column 5: the full solve
        # matches it, and so must the reduced one, whose one new column for
        # it is column 5 -- not the cheaper column 0.
        client, atoms, counts = self.atoms_and_far_rows(6)
        direction = np.ones(6) / np.sqrt(6)

        def excess(step):
            client[5] = atoms[2] + step * direction
            cost = match_cost_matrix(client, atoms, counts, PFNMConfig(), 6)
            return cost[5, 2] - cost[5, 10]

        low, high = 0.0, 1.0
        for _ in range(60):
            middle = (low + high) / 2
            low, high = (middle, high) if excess(middle) < 2.5e-6 else (low, middle)
        assert 1e-6 < excess(high) < 4e-6
        shapes, (_, _, assignment) = self.check(monkeypatch, client, atoms, counts, 100)
        assert shapes == [(1, 2)]
        assert list(assignment) == [10, 11, 12, 13, 14, 2]

    def test_width_cap_solves_the_whole_matrix(self, monkeypatch):
        client, atoms, counts = self.atoms_and_far_rows(6)
        shapes, (neurons, _, _) = self.check(monkeypatch, client, atoms, counts, 13)
        assert shapes == [(6, 10 + 3)]
        assert neurons.shape[0] == 13
