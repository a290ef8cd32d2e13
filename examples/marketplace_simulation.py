"""A step-by-step marketplace walkthrough using the DApp facades.

Unlike ``quickstart.py`` (which drives everything through the high-level
orchestrator), this example plays the two roles "by hand" through the same
interfaces the paper's demo exposes as buttons (Fig. 3): the buyer's DApp
backed by the Flask-like backend, and each owner's DApp backed by a
MetaMask-like wallet and an IPFS node.  Every on-chain interaction, IPFS
upload and REST call is visible in the code.

Run with::

    python examples/marketplace_simulation.py
"""

from __future__ import annotations

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.explorer import Explorer
from repro.contracts import default_registry
from repro.data import (
    SyntheticMnistConfig,
    generate_synthetic_mnist,
    partition_dataset,
    train_test_split,
)
from repro.ipfs import IpfsNode, Swarm
from repro.ml import TrainingConfig
from repro.utils.units import ether_to_wei, format_ether, gwei_to_wei
from repro.web import BuyerBackend, BuyerDApp, OwnerDApp
from repro.web.wallet import MetaMaskWallet

NUM_OWNERS = 3
BUDGET_WEI = ether_to_wei("0.01")
GAS_PRICE = gwei_to_wei(1)


def main() -> None:
    """Walk through Steps 1-7 of the OFL-W3 workflow explicitly."""
    # ------------------------------------------------------------------ setup
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    swarm = Swarm()

    dataset = generate_synthetic_mnist(
        SyntheticMnistConfig(num_samples=3000, class_similarity=0.4, noise_scale=0.3,
                             variation_scale=0.8, seed=11)
    )
    train, test = train_test_split(dataset, test_fraction=0.2, rng=11)
    shards = partition_dataset(train, NUM_OWNERS, alpha=0.5, rng=11)

    buyer_keys = KeyPair.from_label("example-buyer")
    faucet.drip(buyer_keys.address, ether_to_wei(1))
    buyer_wallet = MetaMaskWallet(buyer_keys, node, gas_price_wei=GAS_PRICE)
    buyer_ipfs = IpfsNode("buyer", swarm)
    backend = BuyerBackend(buyer_wallet, buyer_ipfs, test, aggregator_name="pfnm")
    buyer = BuyerDApp(backend)

    owners = []
    for index in range(NUM_OWNERS):
        keys = KeyPair.from_label(f"example-owner-{index}")
        faucet.drip(keys.address, ether_to_wei("0.05"))
        wallet = MetaMaskWallet(keys, node, gas_price_wei=GAS_PRICE)
        ipfs = IpfsNode(f"owner-{index}", swarm)
        owners.append(OwnerDApp(wallet, ipfs))
    swarm.connect_all()

    # ------------------------------------------------------------- Step 1 (buyer)
    spec = {"task": "digit-classification", "model": [784, 100, 10],
            "algorithm": "pfnm", "max_owners": NUM_OWNERS}
    deployment = buyer.deploy_task(spec, BUDGET_WEI)
    print(f"Step 1  task contract deployed at {deployment['contract_address']} "
          f"(fee {deployment['fee_eth']} ETH, escrow {deployment['budget_eth']} ETH)")

    # ------------------------------------------------- Steps 2-4 (each model owner)
    for index, owner in enumerate(owners):
        owner.connect_wallet()
        owner.find_task(deployment["contract_address"])
        owner.register()
        training = owner.train_local_model(
            shards[index], config=TrainingConfig(epochs=3, seed=index), seed=index
        )
        upload = owner.upload_model()
        submission = owner.submit_cid()
        print(f"Step 2-4 owner {index}: trained on {training['num_samples']} samples, "
              f"uploaded {upload['payload_bytes'] / 1024:.0f} KB to IPFS as {upload['cid'][:16]}..., "
              f"CID registered at index {submission['cid_index']} "
              f"(fee {submission['fee_eth']} ETH)")

    # -------------------------------------------------------------- Step 5-6 (buyer)
    listing = buyer.download_cids()
    print(f"Step 5  buyer downloaded {len(listing['cids'])} CIDs from the contract (gas-free)")
    retrieval = buyer.retrieve_models(
        num_samples={owner.wallet.address: len(shards[i]) for i, owner in enumerate(owners)}
    )
    print(f"Step 6  buyer retrieved {retrieval['retrieved']} models "
          f"({retrieval['total_bytes'] / 1024:.0f} KB) from IPFS")

    # ----------------------------------------------------------------- Step 7 (buyer)
    aggregation = buyer.aggregate()
    print(f"Step 7a aggregated with {aggregation['algorithm']}: "
          f"test accuracy {aggregation['aggregate_accuracy']:.4f} "
          f"(locals: {', '.join(f'{a:.3f}' for a in aggregation['local_accuracies'].values())})")

    incentives = buyer.compute_incentives("leave_one_out")
    print(f"Step 7b leave-one-out contributions computed "
          f"({incentives['num_evaluations']} aggregate evaluations)")

    payments = buyer.pay_owners(min_payment_wei=BUDGET_WEI // (10 * NUM_OWNERS))
    print(f"Step 7c paid {len(payments['payments'])} owners a total of "
          f"{payments['total_eth']} ETH from the escrow")
    for owner in owners:
        status = owner.check_payment()
        print(f"        {owner.wallet.address}: received {status['payment_eth']} ETH, "
              f"balance now {status['balance_eth']} ETH")

    # ----------------------------------------------------------------- explorer view
    explorer = Explorer(node.chain)
    stats = explorer.chain_statistics()
    print(f"\nChain summary: {stats['total_transactions']} transactions in "
          f"{stats['height']} blocks, {stats['total_gas_used']:,} gas, "
          f"{format_ether(stats['total_fees_wei'])} ETH total fees, "
          f"{stats['failed_transactions']} failed")


if __name__ == "__main__":
    main()
