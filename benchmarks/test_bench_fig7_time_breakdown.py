"""Figure 7 -- execution-time distribution for model owners and buyers.

Paper observation: on a campus LAN against Sepolia, the bulk of both the
owners' and the buyer's wall-clock time goes to blockchain interactions
(waiting for transaction inclusion), which is what makes one-shot FL (one
on-chain round) viable where multi-round FL (>= 100 rounds) would not be.

The bench regenerates the per-phase breakdown for both roles from the
paper-scale marketplace run, asserts that blockchain interaction dominates,
and checks the owner-side off-chain payload (IPFS upload of a 317 KB model).
"""

from repro.ipfs import IpfsNode
from repro.ml import MLP, serialize_model
from repro.system.roles import BUYER_BLOCKCHAIN_PHASES, OWNER_BLOCKCHAIN_PHASES

from .conftest import print_table


def test_fig7_execution_time_distribution(paper_report):
    """Regenerate Fig. 7's owner/buyer time breakdowns."""
    report = paper_report
    owner = report.owner_time_breakdown()
    buyer = report.buyer_breakdown

    owner_rows = [
        (phase, f"{seconds:8.1f}", f"{fraction * 100:5.1f}%")
        for (phase, seconds), fraction in zip(
            sorted(owner.phases.items(), key=lambda kv: -kv[1]),
            [owner.phases[k] / owner.total for k in sorted(owner.phases, key=owner.phases.get, reverse=True)],
        )
    ]
    print_table("Fig. 7a - model owner time distribution (simulated seconds)",
                owner_rows, ["phase", "seconds", "share"])

    buyer_rows = [
        (phase, f"{seconds:8.1f}", f"{seconds / buyer.total * 100:5.1f}%")
        for phase, seconds in sorted(buyer.phases.items(), key=lambda kv: -kv[1])
    ]
    print_table("Fig. 7b - model buyer time distribution (simulated seconds)",
                buyer_rows, ["phase", "seconds", "share"])

    owner_chain = owner.blockchain_fraction(OWNER_BLOCKCHAIN_PHASES)
    buyer_chain = buyer.blockchain_fraction(BUYER_BLOCKCHAIN_PHASES)
    print(f"blockchain share of total time: owners {owner_chain * 100:.1f}%, "
          f"buyer {buyer_chain * 100:.1f}% (paper: blockchain interactions dominate)")

    assert owner_chain > 0.5, "blockchain interaction must dominate the owners' time"
    assert buyer_chain > 0.5, "blockchain interaction must dominate the buyer's time"
    assert owner.total > 0 and buyer.total > 0
    # Off-chain phases exist but are individually smaller than the chain wait.
    assert owner.phases["model_upload_ipfs"] < owner.phases["send_cid"]
    assert buyer.phases["model_retrieval"] < buyer.phases["payment_transactions"]

    # The owner-side off-chain step: serializing + adding the
    # (784, 100, 10) model (~317 KB) to IPFS.
    model = MLP((784, 100, 10), seed=0)
    added = IpfsNode("bench-fig7").add_bytes(serialize_model(model))
    print(f"model payload: {added.size / 1024:.1f} KB in {added.num_blocks} IPFS blocks "
          f"(paper: 317 KB, CID on-chain footprint: 32 bytes)")
    assert abs(added.size - 317 * 1024) < 8 * 1024
