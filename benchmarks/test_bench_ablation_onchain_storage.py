"""Ablation -- storing a CID on-chain vs storing the model itself on-chain.

Step 4 of the paper argues that recording only the 32-byte CID conserves
on-chain space, whereas storing models directly (as some prior
blockchain-FL systems do) needs at least KB-level storage and "proves to be
impractical within the ETH network".  This bench quantifies that claim with
the simulated chain's gas schedule: gas for one CID slot vs gas for writing
a 317 KB model into contract storage, plus the actual measured cost of a CID
submission transaction.
"""

import pytest

from repro.chain import ChainConfig
from repro.system.costs import estimate_onchain_model_storage_gas
from repro.utils.units import gwei_to_wei, wei_to_ether

from .conftest import print_table

# The shared trained-updates fixture alone takes minutes on a cold cache;
# far over the CI-wide --timeout=120 budget.
pytestmark = pytest.mark.timeout(600)


def test_ablation_cid_vs_model_on_chain(paper_report):
    """Quantify the gas blow-up of on-chain model storage."""
    model_bytes = paper_report.model_payload_bytes
    estimate = estimate_onchain_model_storage_gas(model_bytes)

    gas_price = gwei_to_wei(1)
    cid_fee_eth = float(wei_to_ether(estimate["cid_storage_gas"] * gas_price))
    model_fee_eth = float(wei_to_ether(estimate["model_storage_gas"] * gas_price))

    measured_cid_fee = paper_report.gas_report.category("cid_submission")
    rows = [
        ("CID (32-byte digest, 1 slot)", f"{estimate['cid_storage_gas']:,}", f"{cid_fee_eth:.6f}"),
        (
            f"full model ({model_bytes / 1024:.0f} KB, {estimate['storage_slots']:,} slots)",
            f"{estimate['model_storage_gas']:,}",
            f"{model_fee_eth:.6f}",
        ),
        (
            "measured CID submission tx (incl. contract logic)",
            f"{measured_cid_fee.mean_gas:,.0f}",
            measured_cid_fee.mean_fee_eth,
        ),
    ]
    print_table("Ablation - on-chain storage cost: CID vs whole model (1 gwei gas price)",
                rows, ["what is stored", "gas", "fee (ETH)"])
    print(f"storing the model on-chain costs {estimate['gas_ratio']:.0f}x more gas than its CID")

    assert estimate["gas_ratio"] > 1_000
    # A single block (30M gas) cannot even hold the model write.
    assert estimate["model_storage_gas"] > ChainConfig().block_gas_limit
    # The CID write fits comfortably in a cheap transaction.
    assert estimate["cid_storage_gas"] < 100_000
