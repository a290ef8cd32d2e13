"""Load-generation tour: skewed traffic, a saturation sweep, a flash crowd.

The paper's evaluation drives one task at a time; a production marketplace
serves heavy, skewed, bursty traffic.  This example points ``repro.loadgen``
at a fresh stack and shows the three core instruments:

* an **open-loop run** -- Poisson arrivals, Zipf-skewed senders and content,
  latency percentiles and error accounting;
* a **saturation sweep** -- the same workload at rising offered rates until
  the chain's ~41.7 tx/s block capacity is exceeded and the backlog
  hockey-sticks;
* a **flash crowd inside a live scenario** -- the ``flashcrowd`` simnet
  scenario runs marketplace tasks while background load spikes to 10x.

Run with::

    PYTHONPATH=src python examples/load_saturation.py
"""

from __future__ import annotations

from repro.loadgen import LoadGenConfig, LoadGenerator, run_sweep
from repro.simnet import run_scenario
from repro.system import quick_config


def open_loop_run() -> None:
    print("=" * 78)
    print("open loop: 300 clients, Poisson 20 req/s, Zipf-skewed population")
    print("=" * 78)
    config = LoadGenConfig(clients=300, rate=20.0, duration_seconds=180.0,
                           zipf_exponent=1.2, seed=7)
    report = LoadGenerator(config).run()
    print(report.summary())
    print()


def saturation_sweep() -> None:
    print("=" * 78)
    print("saturation sweep: where does the chain stop keeping up?")
    print("=" * 78)
    config = LoadGenConfig(clients=300, duration_seconds=120.0, rate=10.0,
                           seed=7)
    report = run_sweep(config, rates=[20.0, 80.0, 160.0])
    print(report.summary())
    print()


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
    open_loop_run()
    saturation_sweep()
    flash_crowd_scenario()


if __name__ == "__main__":
    main()
