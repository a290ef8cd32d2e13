"""Gas-cost study: what does each OFL-W3 interaction cost on-chain?

Reproduces the analysis behind Fig. 5 and the Step 4 design argument
("store the CID, not the model") for a configurable number of owners and a
configurable gas price, without running any ML:

* deploys the ``CidStorage`` and ``FLTask`` contracts and measures their
  deployment fees;
* submits CIDs and payments and measures per-transaction fees;
* estimates what storing the 317 KB model payload directly in contract
  storage would cost, showing why it is impractical.

Run with::

    python examples/gas_cost_report.py [--owners 10] [--gas-price-gwei 1]
"""

from __future__ import annotations

import argparse

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.system.costs import build_gas_cost_report, estimate_onchain_model_storage_gas
from repro.utils.units import ether_to_wei, format_ether, gwei_to_wei

MODEL_PAYLOAD_BYTES = 318_132  # serialized (784, 100, 10) MLP, ~317 KB


def parse_args() -> argparse.Namespace:
    """Command-line options."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--owners", type=int, default=10, help="number of model owners")
    parser.add_argument("--gas-price-gwei", type=float, default=1.0, help="gas price in gwei")
    return parser.parse_args()


def main() -> None:
    """Replay the on-chain side of the workflow and print the fee table."""
    args = parse_args()
    gas_price = gwei_to_wei(str(args.gas_price_gwei))

    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    buyer = KeyPair.from_label("gas-buyer")
    faucet.drip(buyer.address, ether_to_wei(2))
    owners = []
    for index in range(args.owners):
        keys = KeyPair.from_label(f"gas-owner-{index}")
        faucet.drip(keys.address, ether_to_wei("0.05"))
        owners.append(keys)

    # Step 1: deploy the task contract with a 0.01 ETH escrow.
    spec = {"task": "digit-classification", "model": [784, 100, 10],
            "algorithm": "pfnm", "max_owners": args.owners}
    deployment = node.wait_for_receipt(
        node.deploy_contract(buyer, "FLTask", [spec], value=ether_to_wei("0.01"),
                             gas_price=gas_price)
    )
    task = deployment.contract_address
    print(f"FLTask deployment: {deployment.gas_used:,} gas, "
          f"{format_ether(deployment.fee_wei)} ETH")

    # Steps 2-4: every owner registers and submits a CID.
    for index, keys in enumerate(owners):
        node.wait_for_receipt(
            node.transact_contract(keys, task, "registerOwner", [], gas_price=gas_price)
        )
        node.wait_for_receipt(
            node.transact_contract(keys, task, "uploadCid", [f"Qm{index:044d}"],
                                   gas_price=gas_price)
        )

    # Step 7: the buyer pays every owner an equal share.
    share = ether_to_wei("0.01") // args.owners
    for keys in owners:
        node.wait_for_receipt(
            node.transact_contract(buyer, task, "payOwner", [keys.address, share],
                                   gas_price=gas_price)
        )

    # Fee table by category (Fig. 5).
    report = build_gas_cost_report(node.chain)
    print(f"\nGas fees by transaction type ({args.gas_price_gwei} gwei):")
    print(f"{'category':<26}{'count':>6}{'mean gas':>14}{'mean fee (ETH)':>18}")
    for name, row in sorted(report.rows.items(), key=lambda kv: -kv[1].mean_fee_wei):
        print(f"{name:<26}{row.count:>6}{row.mean_gas:>14,.0f}{row.mean_fee_eth:>18}")
    print(f"\nordering check (deployment heaviest, CID ~ payment): {report.ordering_holds()}")

    # Step 4 ablation: CID vs whole model on-chain.
    estimate = estimate_onchain_model_storage_gas(MODEL_PAYLOAD_BYTES)
    cid_fee = format_ether(estimate["cid_storage_gas"] * gas_price)
    model_fee = format_ether(estimate["model_storage_gas"] * gas_price)
    print(f"\nStoring one 32-byte CID on-chain:   {estimate['cid_storage_gas']:>12,} gas "
          f"({cid_fee} ETH)")
    print(f"Storing the 317 KB model on-chain:  {estimate['model_storage_gas']:>12,} gas "
          f"({model_fee} ETH)")
    print(f"-> the model costs {estimate['gas_ratio']:,.0f}x more gas and exceeds the "
          f"{node.chain.config.block_gas_limit / 1e6:.0f}M block gas limit "
          f"{estimate['model_storage_gas'] / node.chain.config.block_gas_limit:,.0f} times over")


if __name__ == "__main__":
    main()
