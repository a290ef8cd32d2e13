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

Matching runs in float64 on the clients' parameters widened (a float32
payload's values exactly), and the fused model is written once, in the
updates' dtype.

Each atom is stored once (:class:`_Atoms`).  An atom that is still exactly
one owner's neuron is that owner's (owner, row), read from the owner's own
parameters; only a merged atom has a float64 row.  A client's products with
an owner's atoms are one owner-pair block ``C_later @ C_earlier.T``, which
the aggregator computes once and keeps (:class:`_PairBlocks`): leave-one-out
aggregates the grand coalition and then every coalition short of one owner,
and each of those folds reads the grand coalition's blocks.

This implementation follows the single-hidden-layer formulation used for the
paper's (784, 100, 10) MLP, and refuses any other depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AggregationError
from repro.fl.model_update import ModelUpdate, check_compatible
from repro.fl.oneshot.base import AggregationResult, OneShotAggregator
from repro.ml.layers import DenseLayer
from repro.ml.mlp import MLP


def linear_sum_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`scipy.optimize.linear_sum_assignment`, imported on first call.

    Loading ``scipy.optimize`` costs ~50 MB and ~0.7 s, and below the width
    cap a fold-in often has no row worth solving (see :func:`_fold_in_client`),
    so a task that never solves never loads it.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


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


def _neurons(parameters: List[Dict[str, np.ndarray]], rows=slice(None)) -> np.ndarray:
    """Hidden neurons ``rows`` of a (D, H, C) model as float64 vectors:
    incoming weights | bias | outgoing weights."""
    hidden, output = parameters
    return np.concatenate(
        [hidden["weights"][:, rows].T, hidden["biases"][rows].reshape(-1, 1),
         output["weights"][rows]],
        axis=1, dtype=np.float64,
    )


def _inner_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right.T``: every client-atom product a fold's costs read."""
    return left @ right.T


class _Client:
    """One client's neurons in float64, their squared norms, and whose they are.

    ``owner`` is the client's position in the aggregation's owner list, or -1
    when the neurons are no owner's own.
    """

    def __init__(self, neurons: np.ndarray, owner: int = -1) -> None:
        self.neurons = neurons
        self.owner = owner
        self.sq = np.sum(neurons**2, axis=1)


class _Atoms:
    """The global atoms of one layer's matching, each stored once.

    While ``owner[a] >= 0``, atom ``a`` is still exactly row ``index[a]`` of
    ``owners[owner[a]]``'s model and is read from that update's parameters.
    Otherwise it has a float64 row of its own, ``rows[index[a]]``: a merged
    atom.  ``counts`` is how many client
    neurons each atom holds, ``sq`` its squared norm.
    """

    def __init__(self, dim: int, owners: Sequence[ModelUpdate] = ()) -> None:
        self.owners = owners
        self.owner = np.empty(0, dtype=np.int64)
        self.index = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0)
        self.sq = np.empty(0)
        self.rows = np.empty((0, dim))

    def __len__(self) -> int:
        return self.counts.size

    def neurons(self, atoms: np.ndarray) -> np.ndarray:
        """The float64 vectors of ``atoms`` (atom indices)."""
        out = np.empty((atoms.size, self.rows.shape[1]))
        owner = self.owner[atoms]
        for source in np.unique(owner):
            picked = owner == source
            index = self.index[atoms[picked]]
            out[picked] = (self.rows[index] if source < 0
                           else _neurons(self.owners[source].parameters, index))
        return out

    def products(self, client: _Client,
                 block: Optional[Callable[[ModelUpdate], np.ndarray]]) -> np.ndarray:
        """``client.neurons @ atom.T`` for every atom.

        An owner's atoms read their columns from ``block(owner)``, the
        client's block against that owner's whole model; only atoms with a
        row of their own get a product here.
        """
        products = np.empty((client.neurons.shape[0], len(self)))
        for source in np.unique(self.owner):
            picked = self.owner == source
            columns = (_inner_products(client.neurons, self.rows) if source < 0
                       else block(self.owners[source]))
            products[:, picked] = columns[:, self.index[picked]]
        return products

    def append(self, client: _Client, rows: np.ndarray) -> None:
        """Open one new atom per client row of ``rows``, in order."""
        if client.owner >= 0:
            index = rows
        else:
            index = self.rows.shape[0] + np.arange(rows.size)
            self.rows = np.concatenate([self.rows, client.neurons[rows]])
        self.owner = np.concatenate([self.owner, np.full(rows.size, client.owner)])
        self.index = np.concatenate([self.index, index])
        self.counts = np.concatenate([self.counts, np.ones(rows.size)])
        self.sq = np.concatenate([self.sq, client.sq[rows]])

    def merge(self, client: _Client, rows: np.ndarray, atoms: np.ndarray) -> None:
        """Fold client ``rows`` into the distinct ``atoms`` by running weighted mean."""
        count = self.counts[atoms].reshape(-1, 1)
        merged = (self.neurons(atoms) * count + client.neurons[rows]) / (count + 1.0)
        owned = self.owner[atoms] < 0
        self.rows[self.index[atoms[owned]]] = merged[owned]
        fresh = atoms[~owned]
        if fresh.size:
            self.owner[fresh] = -1
            self.index[fresh] = self.rows.shape[0] + np.arange(fresh.size)
            self.rows = np.concatenate([self.rows, merged[~owned]])
        self.counts[atoms] += 1.0
        self.sq[atoms] = np.sum(merged**2, axis=1)


class _PairBlocks:
    """Owner-pair blocks ``C_later @ C_earlier.T``, each computed once.

    A block is keyed by its two updates, which the memo holds, so no key
    outlives its update.  A call over owners it already holds (leave-one-out's
    drops, Shapley's coalitions) reads every block it needs; a call that
    brings a new owner keeps only the blocks among its own owners.  An update
    is not edited once aggregated (a retrieved model's arrays are read-only).
    """

    def __init__(self) -> None:
        self._owners: List[ModelUpdate] = []
        self._blocks: Dict[Tuple[int, int], np.ndarray] = {}

    def admit(self, updates: Sequence[ModelUpdate]) -> None:
        """Make ``updates`` the owners held, unless it brings none new."""
        held = {id(update) for update in self._owners}
        if all(id(update) in held for update in updates):
            return
        kept = {id(update) for update in updates}
        self._blocks = {pair: block for pair, block in self._blocks.items()
                        if kept.issuperset(pair)}
        self._owners = list(updates)

    def get(self, later: ModelUpdate, later_neurons: np.ndarray,
            earlier: ModelUpdate) -> np.ndarray:
        """``later``'s neurons times ``earlier``'s, computed on the first ask."""
        pair = (id(later), id(earlier))
        if pair not in self._blocks:
            self._blocks[pair] = _inner_products(later_neurons, _neurons(earlier.parameters))
        return self._blocks[pair]


def _match_cost_matrix(
    client: _Client,
    atoms: _Atoms,
    products: np.ndarray,
    config: PFNMConfig,
    allow_new: int,
) -> np.ndarray:
    """Build the assignment cost matrix of shape (J, L + allow_new).

    ``products`` is ``client.neurons @ atom.T`` for the L atoms, and becomes
    the squared distances in place.  The first L columns are the costs of
    matching each client neuron to each existing global neuron (negative log
    of the posterior match likelihood: squared distance shrunk by the running
    count).  The trailing ``allow_new`` columns are the cost of opening a new
    global neuron (prior self-distance plus a penalty that grows as more
    neurons already exist, mirroring the IBP prior's preference for reusing
    popular atoms).
    """
    num_client = client.neurons.shape[0]
    num_global = len(atoms)
    sigma_sq = config.sigma**2
    sigma0_sq = config.sigma0**2

    columns: List[np.ndarray] = []
    if num_global:
        # Posterior precision of a global atom matched `count` times grows with
        # count, making well-supported atoms cheaper to match.
        counts = atoms.counts.reshape(1, num_global)
        # |c - m|^2 = |c|^2 + |m|^2 - 2 c.m: one (J x D)(D x L) product, never
        # the J x L x D difference tensor.  Rounding can leave a distance of
        # ~0 a hair below it, hence the clip.
        squared = products
        squared *= -2.0
        squared += client.sq.reshape(num_client, 1)
        squared += atoms.sq.reshape(1, num_global)
        np.maximum(squared, 0.0, out=squared)
        match_cost = squared / (2.0 * sigma_sq) - np.log(counts + config.gamma)
        columns.append(match_cost)
    if allow_new:
        self_cost = client.sq / (2.0 * (sigma_sq + sigma0_sq))
        new_penalty = self_cost - np.log(config.gamma / (num_global + 1.0))
        new_block = np.tile(new_penalty.reshape(num_client, 1), (1, allow_new))
        # Make "new neuron" columns usable at most once each by adding a tiny
        # increasing offset; the Hungarian solver then fills them in order.
        new_block = new_block + np.arange(allow_new).reshape(1, allow_new) * 1e-6
        columns.append(new_block)
    return np.concatenate(columns, axis=1) if columns else np.zeros((num_client, 0))


def _fold_in_client(
    client: _Client,
    atoms: _Atoms,
    config: PFNMConfig,
    max_global: int,
    block: Optional[Callable[[ModelUpdate], np.ndarray]] = None,
) -> np.ndarray:
    """Match one client's neurons into the running global ``atoms``, in place.

    Returns ``assignment``: ``assignment[j]`` is the atom client neuron ``j``
    mapped to.  New atoms are appended in ascending client-row order.
    ``block(owner)`` is this client's products with ``owner``'s whole model
    (see :meth:`_Atoms.products`); a fold with no owner atoms needs none.  A
    non-empty global model must hold at least as many atoms as the client
    has neurons (the first fold copies a client, and every client has the
    same width), so the matrix always admits a perfect matching.

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
    num_client = client.neurons.shape[0]
    num_global = len(atoms)
    if num_global == 0:
        atoms.append(client, np.arange(num_client))
        return np.arange(num_client)

    if num_global < num_client:
        raise AggregationError(
            f"cannot fold {num_client} client neurons into {num_global} global atoms"
        )
    allow_new = max(0, min(num_client, max_global - num_global))
    cost = _match_cost_matrix(client, atoms, atoms.products(client, block), config, allow_new)
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
    # A matching: the targets are distinct.
    atoms.merge(client, match_rows, targets)
    atoms.append(client, new_rows)
    assignment = np.empty(num_client, dtype=np.int64)
    assignment[match_rows] = targets
    assignment[new_rows] = np.arange(num_global, num_global + new_rows.size)
    return assignment


def _fused_dtype(updates: Sequence[ModelUpdate]) -> np.dtype:
    """The fused model's dtype: its updates' (at least float32)."""
    return np.result_type(*(update.parameters[0]["weights"] for update in updates), np.float32)


class PFNMAggregator(OneShotAggregator):
    """One-shot aggregation by probabilistic neuron matching.

    An aggregator keeps the owner-pair blocks of the updates it last
    aggregated (:class:`_PairBlocks`), so aggregating subsets of them again
    -- a task's leave-one-out drops -- reads them instead of recomputing.
    """

    name = "pfnm"

    def __init__(self, config: Optional[PFNMConfig] = None) -> None:
        self.config = config or PFNMConfig()
        self._blocks = _PairBlocks()

    # -- public API -----------------------------------------------------------------

    def aggregate(self, updates: Sequence[ModelUpdate]) -> AggregationResult:
        """Fuse the updates into a single (possibly wider) global MLP."""
        updates = list(updates)
        layer_sizes = check_compatible(updates)
        num_hidden_layers = len(layer_sizes) - 2
        if num_hidden_layers != 1:
            raise AggregationError(
                "PFNM matches exactly one hidden layer; "
                f"got architecture {layer_sizes}"
            )
        model, global_width = self._aggregate_single_hidden(updates, layer_sizes)
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

        # Fold clients in descending data-size order (better-supported neurons
        # establish the atoms the rest match against).
        ordered = sorted(updates, key=lambda u: -u.num_samples)
        self._blocks.admit(ordered)
        atoms = _Atoms(input_dim + 1 + output_dim, ordered)
        output_bias_sum = np.zeros(output_dim)
        total_weight = 0.0
        for position, update in enumerate(ordered):
            client = _Client(_neurons(update.parameters), owner=position)
            _fold_in_client(client, atoms, self.config, max_global,
                            partial(self._blocks.get, update, client.neurons))
            output_biases = np.asarray(update.parameters[1]["biases"], dtype=np.float64)
            output_bias_sum += output_biases * update.num_samples
            total_weight += update.num_samples

        # Written once, atom by atom, in the fused dtype.  The hidden weights
        # are filled transposed, so they come out Fortran-ordered (the layout
        # BLAS picks the evaluation's kernels by).
        width = len(atoms)
        dtype = _fused_dtype(updates)
        incoming = np.empty((width, input_dim), dtype=dtype)
        biases = np.empty(width, dtype=dtype)
        outgoing = np.empty((width, output_dim), dtype=dtype)
        # Down-weight the outgoing weights of rarely matched atoms so that
        # neurons seen by few clients do not dominate the logits.
        support = (atoms.counts / len(updates)).reshape(-1, 1)
        for source in np.unique(atoms.owner):
            picked = atoms.owner == source
            index = atoms.index[picked]
            if source < 0:
                rows = atoms.rows[index]
                incoming[picked] = rows[:, :input_dim]
                biases[picked] = rows[:, input_dim]
                outgoing[picked] = rows[:, input_dim + 1:] * support[picked]
            else:
                hidden, output = ordered[source].parameters
                incoming[picked] = hidden["weights"][:, index].T
                biases[picked] = hidden["biases"][index]
                outgoing[picked] = output["weights"][index] * support[picked]
        model = MLP.from_layers([
            DenseLayer.holding(incoming.T, biases),
            DenseLayer.holding(outgoing, (output_bias_sum / total_weight).astype(dtype)),
        ])
        return model, width
