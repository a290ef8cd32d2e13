"""Background-load tour: marketplace tasks under skewed, bursty traffic.

The paper's evaluation drives one task at a time; a production marketplace
serves heavy, skewed, bursty traffic beside it.  ``repro.loadgen`` is that
traffic inside a ``repro.simnet`` scenario: Zipf-skewed clients fire
transfers, chain reads and ``ipfs_cat`` fetches at the shared gateway while
the tasks run.  This example runs the ``flashcrowd`` scenario, whose
background load spikes to 10x its base rate mid-run; the report's ``load:``
line counts the background requests, their errors and the transfers' mined
share and confirmation latency.

Run with::

    PYTHONPATH=src python examples/background_load.py
"""

from __future__ import annotations

from repro.simnet import run_scenario
from repro.system import quick_config


def flash_crowd_scenario() -> None:
    print("=" * 78)
    print("flashcrowd scenario: marketplace tasks under a 10x traffic spike")
    print("=" * 78)
    report = run_scenario(
        "flashcrowd",
        config=quick_config(num_owners=2, local_epochs=1, num_samples=800),
        background_load={"clients": 80, "rate": 5.0, "arrival": "flashcrowd",
                         "duration_seconds": 240.0},
    )
    print(report.summary())


def main() -> None:
    flash_crowd_scenario()


if __name__ == "__main__":
    main()
