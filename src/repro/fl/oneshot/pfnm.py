"""PFNM: probabilistic federated neural matching (Yurochkin et al., 2019).

The algorithm the paper adopts for one-shot aggregation.  Independently
trained networks are permutation-invariant in their hidden units, so naive
averaging mixes unrelated neurons.  PFNM instead treats global hidden neurons
as atoms of a Bayesian-nonparametric model (a Beta-Bernoulli process) and
*matches* each client's neurons to global neurons before averaging:

1. each client neuron is represented by the vector of parameters attached to
   it (incoming weights, bias, and outgoing weights for the last hidden
   layer);
2. clients are folded in one at a time; the cost of assigning client neuron
   *k* to global neuron *g* is their squared distance (scaled by the prior
   variances), while assigning it to a *new* global neuron costs a penalty
   derived from the prior -- this is what makes the global model
   nonparametric (its width can grow);
3. the assignment is solved with the Hungarian algorithm
   (:func:`scipy.optimize.linear_sum_assignment`), matched neurons are
   averaged (running mean weighted by how many clients matched them), and
   unmatched ones are appended as new global neurons;
4. the output layer is averaged through the same matching.

This implementation follows the single-hidden-layer formulation used for the
paper's (784, 100, 10) MLP and extends to deeper MLPs by matching hidden
layers sequentially (in the spirit of the follow-up FedMA work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.errors import AggregationError
from repro.fl.model_update import ModelUpdate, check_compatible
from repro.fl.oneshot.base import AggregationResult, OneShotAggregator
from repro.ml.mlp import MLP


@dataclass(frozen=True)
class PFNMConfig:
    """Hyperparameters of the matching procedure.

    ``sigma`` is the assumed observation noise of client neurons around their
    global atom, ``sigma0`` the prior scale of global atoms, and ``gamma`` the
    Indian-buffet-process-style concentration controlling how readily new
    global neurons are created.  ``max_global_neurons_factor`` caps global
    width at ``factor * local_width`` to keep the aggregated model small.
    """

    sigma: float = 0.3
    sigma0: float = 10.0
    gamma: float = 20.0
    max_global_neurons_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.sigma <= 0 or self.sigma0 <= 0 or self.gamma <= 0:
            raise ValueError("sigma, sigma0 and gamma must all be positive")
        if self.max_global_neurons_factor < 1.0:
            raise ValueError("max_global_neurons_factor must be at least 1")


def _match_cost_matrix(
    client_neurons: np.ndarray,
    global_neurons: np.ndarray,
    global_counts: np.ndarray,
    config: PFNMConfig,
    allow_new: int,
) -> np.ndarray:
    """Build the assignment cost matrix of shape (J, L + allow_new).

    The first L columns are the costs of matching each client neuron to each
    existing global neuron (negative log of the posterior match likelihood:
    squared distance shrunk by the running count).  The trailing ``allow_new``
    columns are the cost of opening a new global neuron (prior self-distance
    plus a penalty that grows as more neurons already exist, mirroring the
    IBP prior's preference for reusing popular atoms).
    """
    num_client = client_neurons.shape[0]
    num_global = global_neurons.shape[0]
    sigma_sq = config.sigma**2
    sigma0_sq = config.sigma0**2
    client_sq = np.sum(client_neurons**2, axis=1)

    columns: List[np.ndarray] = []
    if num_global:
        # Posterior precision of a global atom matched `count` times grows with
        # count, making well-supported atoms cheaper to match.
        counts = global_counts.reshape(1, num_global)
        # |c - m|^2 = |c|^2 + |m|^2 - 2 c.m: one (J x D)(D x L) product, never
        # the J x L x D difference tensor.  Rounding can leave a distance of
        # ~0 a hair below it, hence the clip.
        global_sq = np.sum(global_neurons**2, axis=1)
        squared = client_neurons @ global_neurons.T
        squared *= -2.0
        squared += client_sq.reshape(num_client, 1)
        squared += global_sq.reshape(1, num_global)
        np.maximum(squared, 0.0, out=squared)
        match_cost = squared / (2.0 * sigma_sq) - np.log(counts + config.gamma)
        columns.append(match_cost)
    if allow_new:
        self_cost = client_sq / (2.0 * (sigma_sq + sigma0_sq))
        new_penalty = self_cost - np.log(config.gamma / (num_global + 1.0))
        new_block = np.tile(new_penalty.reshape(num_client, 1), (1, allow_new))
        # Make "new neuron" columns usable at most once each by adding a tiny
        # increasing offset; the Hungarian solver then fills them in order.
        new_block = new_block + np.arange(allow_new).reshape(1, allow_new) * 1e-6
        columns.append(new_block)
    return np.concatenate(columns, axis=1) if columns else np.zeros((num_client, 0))


def _fold_in_client(
    client_neurons: np.ndarray,
    global_neurons: Optional[np.ndarray],
    global_counts: Optional[np.ndarray],
    config: PFNMConfig,
    max_global: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match one client's neurons into the running global atoms.

    Returns the updated ``(global_neurons, global_counts, assignment)`` where
    ``assignment[j]`` is the global index client neuron ``j`` mapped to.  New
    atoms are appended in ascending client-row order.  A non-empty global
    model must hold at least as many atoms as the client has neurons (the
    first fold copies a client, and every client has the same width), so the
    matrix always admits a perfect matching.

    Below the width cap (``allow_new == num_client``) the Hungarian solver
    sees only the assignments in question.  Let ``last_new[j]`` be row
    ``j``'s dearest new-atom column.  An existing atom ``g`` with
    ``cost[j, g] > last_new[j]`` is in no optimal matching: at most
    ``num_client - 1`` other rows hold new columns, so a new column no dearer
    than ``last_new[j]`` is free, and moving ``j`` there strictly lowers the
    total.  So rows left with no atom open new atoms outright, atoms no row
    can use are dropped, and the remaining rows are solved against the
    remaining atoms plus the last new columns of the same matrix, one per
    remaining row: every entry and every 1e-6 offset is the float the full
    solve would have seen, and the rows opened outright hold the cheaper new
    columns they would have held there.  At the width cap the full matrix is
    solved.
    """
    num_client = client_neurons.shape[0]
    if global_neurons is None or global_neurons.shape[0] == 0:
        return client_neurons.copy(), np.ones(num_client), np.arange(num_client)

    num_global = global_neurons.shape[0]
    if num_global < num_client:
        raise AggregationError(
            f"cannot fold {num_client} client neurons into {num_global} global atoms"
        )
    allow_new = max(0, min(num_client, max_global - num_global))
    cost = _match_cost_matrix(client_neurons, global_neurons, global_counts, config, allow_new)
    if allow_new < num_client:
        rows, cols = linear_sum_assignment(cost)
    else:
        last_new = cost[:, num_global + num_client - 1]
        useful = cost[:, :num_global] <= last_new.reshape(num_client, 1)
        rows = np.flatnonzero(useful.any(axis=1))
        cols = np.empty(0, dtype=np.int64)
        if rows.size:
            columns = np.concatenate([
                np.flatnonzero(useful[rows].any(axis=0)),
                np.arange(num_global + num_client - rows.size, num_global + num_client),
            ])
            picked_rows, picked_cols = linear_sum_assignment(cost[np.ix_(rows, columns)])
            rows, cols = rows[picked_rows], columns[picked_cols]

    matched = cols < num_global
    match_rows, targets = rows[matched], cols[matched]
    new_rows = np.setdiff1d(np.arange(num_client), match_rows)
    width = num_global + new_rows.size
    updated_neurons = np.empty((width, client_neurons.shape[1]))
    updated_neurons[:num_global] = global_neurons
    updated_neurons[num_global:] = client_neurons[new_rows]
    updated_counts = np.ones(width)
    updated_counts[:num_global] = global_counts
    # Running weighted mean of the matched atoms (a matching: targets distinct).
    count = updated_counts[targets].reshape(-1, 1)
    updated_neurons[targets] = (updated_neurons[targets] * count + client_neurons[match_rows]) / (count + 1.0)
    updated_counts[targets] += 1.0
    assignment = np.empty(num_client, dtype=np.int64)
    assignment[match_rows] = targets
    assignment[new_rows] = np.arange(num_global, width)
    return updated_neurons, updated_counts, assignment


class PFNMAggregator(OneShotAggregator):
    """One-shot aggregation by probabilistic neuron matching."""

    name = "pfnm"

    def __init__(self, config: Optional[PFNMConfig] = None) -> None:
        self.config = config or PFNMConfig()

    # -- public API -----------------------------------------------------------------

    def aggregate(self, updates: Sequence[ModelUpdate]) -> AggregationResult:
        """Fuse the updates into a single (possibly wider) global MLP."""
        updates = list(updates)
        layer_sizes = check_compatible(updates)
        num_hidden_layers = len(layer_sizes) - 2
        if num_hidden_layers < 1:
            raise AggregationError(
                "PFNM requires at least one hidden layer; "
                f"got architecture {layer_sizes}"
            )
        if num_hidden_layers == 1:
            model, global_width = self._aggregate_single_hidden(updates, layer_sizes)
        else:
            model, global_width = self._aggregate_deep(updates, layer_sizes)
        return AggregationResult(
            predictor=model,
            algorithm=self.name,
            num_updates=len(updates),
            details={
                "global_hidden_width": global_width,
                "local_hidden_width": layer_sizes[1],
                "config": self.config,
            },
        )

    # -- single hidden layer (the paper's architecture) --------------------------------

    def _aggregate_single_hidden(
        self, updates: List[ModelUpdate], layer_sizes: Tuple[int, ...]
    ) -> Tuple[MLP, int]:
        """Exact PFNM for a (D, H, C) MLP."""
        input_dim, hidden_dim, output_dim = layer_sizes[0], layer_sizes[1], layer_sizes[-1]
        max_global = int(np.ceil(hidden_dim * self.config.max_global_neurons_factor))

        global_neurons: Optional[np.ndarray] = None
        global_counts: Optional[np.ndarray] = None
        output_bias_sum = np.zeros(output_dim)
        total_weight = 0.0

        # Fold clients in descending data-size order (better-supported neurons
        # establish the atoms the rest match against).
        ordered = sorted(updates, key=lambda u: -u.num_samples)
        for update in ordered:
            hidden = update.parameters[0]
            output = update.parameters[1]
            # Neuron vector: incoming weights | bias | outgoing weights.
            client_neurons = np.concatenate(
                [hidden["weights"].T, hidden["biases"].reshape(-1, 1), output["weights"]],
                axis=1,
            )
            global_neurons, global_counts, _ = _fold_in_client(
                client_neurons, global_neurons, global_counts, self.config, max_global
            )
            output_bias_sum += output["biases"] * update.num_samples
            total_weight += update.num_samples

        global_width = global_neurons.shape[0]
        incoming = global_neurons[:, :input_dim].T
        biases = global_neurons[:, input_dim]
        outgoing = global_neurons[:, input_dim + 1:]
        # Down-weight the outgoing weights of rarely matched atoms so that
        # neurons seen by few clients do not dominate the logits.
        support = (global_counts / len(updates)).reshape(-1, 1)
        outgoing = outgoing * support

        parameters = [
            {"weights": incoming, "biases": biases},
            {"weights": outgoing, "biases": output_bias_sum / total_weight},
        ]
        return MLP.from_parameters(parameters), global_width

    # -- deeper MLPs (layer-wise extension) ------------------------------------------------

    def _aggregate_deep(
        self, updates: List[ModelUpdate], layer_sizes: Tuple[int, ...]
    ) -> Tuple[MLP, int]:
        """Layer-wise matching for MLPs with more than one hidden layer.

        Hidden layers are matched one at a time, re-expressing each client's
        incoming weights in the global coordinates of the previously matched
        layer (FedMA-style).  The output layer is averaged through the final
        matching.
        """
        num_layers = len(layer_sizes) - 1
        ordered = sorted(updates, key=lambda u: -u.num_samples)
        # Per-client permutation of the previous layer: maps client unit -> global unit.
        prev_maps: Dict[int, np.ndarray] = {
            i: np.arange(layer_sizes[0]) for i in range(len(ordered))
        }
        prev_global_width = layer_sizes[0]
        global_parameters: List[Dict[str, np.ndarray]] = []
        last_width = layer_sizes[0]

        for layer_index in range(num_layers - 1):
            width = layer_sizes[layer_index + 1]
            max_global = int(np.ceil(width * self.config.max_global_neurons_factor))
            global_neurons = None
            global_counts = None
            assignments: Dict[int, np.ndarray] = {}
            for client_index, update in enumerate(ordered):
                layer = update.parameters[layer_index]
                incoming = np.zeros((width, prev_global_width))
                incoming[:, prev_maps[client_index]] = layer["weights"].T
                client_neurons = np.concatenate(
                    [incoming, layer["biases"].reshape(-1, 1)], axis=1
                )
                global_neurons, global_counts, assignment = _fold_in_client(
                    client_neurons, global_neurons, global_counts, self.config, max_global
                )
                assignments[client_index] = assignment
            global_width = global_neurons.shape[0]
            global_parameters.append(
                {
                    "weights": global_neurons[:, :prev_global_width].T,
                    "biases": global_neurons[:, prev_global_width],
                }
            )
            prev_maps = assignments
            prev_global_width = global_width
            last_width = global_width

        # Output layer: scatter each client's outgoing weights into global
        # coordinates and average with sample weights.
        output_dim = layer_sizes[-1]
        weight_sum = np.zeros((prev_global_width, output_dim))
        count_sum = np.zeros((prev_global_width, 1))
        bias_sum = np.zeros(output_dim)
        total_weight = 0.0
        for client_index, update in enumerate(ordered):
            output = update.parameters[-1]
            mapping = prev_maps[client_index]
            weight_sum[mapping] += output["weights"] * update.num_samples
            count_sum[mapping] += update.num_samples
            bias_sum += output["biases"] * update.num_samples
            total_weight += update.num_samples
        count_sum[count_sum == 0] = 1.0
        global_parameters.append(
            {"weights": weight_sum / count_sum, "biases": bias_sum / total_weight}
        )
        return MLP.from_parameters(global_parameters), last_width
