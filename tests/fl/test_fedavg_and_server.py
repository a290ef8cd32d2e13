"""Tests for repro.fl.fedavg."""

import pytest

from repro.errors import AggregationError
from repro.fl import FedAvgConfig, FedAvgServer, FLClient
from repro.ml import TrainingConfig


@pytest.fixture()
def clients(tiny_client_datasets):
    return [
        FLClient(
            f"client-{i}",
            dataset,
            config=TrainingConfig(epochs=1, batch_size=32, seed=i),
            seed=i,
        )
        for i, dataset in enumerate(tiny_client_datasets)
    ]


class TestFedAvg:
    def test_runs_requested_rounds(self, clients, tiny_split):
        _, test = tiny_split
        server = FedAvgServer(clients, FedAvgConfig(num_rounds=2, local_epochs=1, seed=0))
        history = server.run(test)
        assert len(history) == 2
        assert server.total_client_uploads == 2 * len(clients)

    def test_accuracy_improves_over_rounds(self, clients, tiny_split):
        _, test = tiny_split
        server = FedAvgServer(clients, FedAvgConfig(num_rounds=4, local_epochs=1, seed=0))
        history = server.run(test)
        assert history[-1].test_accuracy >= history[0].test_accuracy - 0.05
        assert history[-1].test_accuracy > 0.3

    def test_every_client_participates_in_every_round(self, clients, tiny_split):
        _, test = tiny_split
        server = FedAvgServer(clients, FedAvgConfig(num_rounds=2, local_epochs=1, seed=0))
        history = server.run(test)
        everyone = [client.client_id for client in clients]
        assert [record.participating_clients for record in history] == [everyone, everyone]

    def test_needs_clients(self):
        with pytest.raises(AggregationError):
            FedAvgServer([], FedAvgConfig(num_rounds=1))

    def test_history_without_test_dataset(self, clients):
        server = FedAvgServer(clients, FedAvgConfig(num_rounds=1, local_epochs=1, seed=0))
        history = server.run()
        assert len(history) == 1

