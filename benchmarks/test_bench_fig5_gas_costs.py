"""Figure 5 -- transaction gas fees on the (simulated) Sepolia testnet.

Paper observation (Figs. 5b-5d): contract deployment carries the heaviest
gas fee (~0.002 ETH) because every function is written to the blockchain;
submitting a 32-byte CID and sending a payment both only write a storage
slot, so their fees are comparable and much smaller.  Downloading CIDs is a
read and costs nothing.

The bench regenerates the per-category fee table from the chain explorer of
the paper-scale marketplace run and asserts the ordering, then prints the
fee of one CID-submission transaction (preview + sign + include) on a fresh
chain.
"""

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.utils.units import ether_to_wei, format_ether, gwei_to_wei, wei_to_ether

from .conftest import print_table


def test_fig5_gas_fee_by_transaction_type(paper_report):
    """Regenerate the Fig. 5 fee comparison and run one CID submission."""
    report = paper_report.gas_report

    rows = []
    for category in ("deployment", "registration", "cid_submission", "payment"):
        row = report.category(category)
        if row is None:
            continue
        rows.append(
            (
                category,
                row.count,
                f"{row.mean_gas:,.0f}",
                row.mean_fee_eth,
                row.to_dict()["max_fee_eth"],
            )
        )
    rows.append(("cid_download (read-only)", "-", "0", "0.00000000", "0.00000000"))
    print_table(
        "Fig. 5 - gas fees by transaction type (simulated Sepolia, 1 gwei)",
        rows,
        ["transaction type", "count", "mean gas", "mean fee (ETH)", "max fee (ETH)"],
    )

    deployment = report.category("deployment")
    cid = report.category("cid_submission")
    payment = report.category("payment")
    assert report.ordering_holds()
    assert deployment.mean_fee_wei > 5 * cid.mean_fee_wei
    assert 0.1 <= cid.mean_fee_wei / payment.mean_fee_wei <= 10
    # Magnitude check: deployment lands in the paper's ~0.002 ETH ballpark.
    deployment_eth = float(wei_to_ether(int(deployment.mean_fee_wei)))
    print(f"deployment fee = {deployment_eth:.6f} ETH (paper: ~0.002 ETH)")
    assert 0.0005 < deployment_eth < 0.01

    # One full CID-submission transaction on a fresh chain.
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    owner = KeyPair.from_label("bench-fig5-owner")
    faucet.drip(owner.address, ether_to_wei(1))
    deployment_receipt = node.wait_for_receipt(
        node.deploy_contract(owner, "CidStorage", [], gas_price=gwei_to_wei(1))
    )
    contract = deployment_receipt.contract_address
    receipt = node.wait_for_receipt(node.transact_contract(
        owner, contract, "uploadCid", [f"Qm{1:044d}"], gas_price=gwei_to_wei(1)))
    assert receipt.status
    print(f"one CID submission costs {format_ether(receipt.fee_wei)} ETH "
          f"({receipt.gas_used:,} gas)")
