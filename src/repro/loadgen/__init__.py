"""repro.loadgen -- the open-/closed-loop workload driver.

Spawns thousands of simulated clients on the shared simulated clock, firing
skewed (Zipfian) and bursty (Poisson / ramp / flash-crowd) request mixes at
the JSON-RPC gateway through :class:`~repro.rpc.client.MarketplaceClient`,
and accounts latency percentiles, sustained throughput and error rates into
load and saturation-sweep reports.

See ``docs/performance.md`` for how to run it and read the reports.
"""

from repro.loadgen.arrivals import (
    ArrivalProcess,
    FlashCrowdArrivals,
    PoissonArrivals,
    RampArrivals,
    UniformArrivals,
    ZipfSelector,
    make_arrivals,
)
from repro.loadgen.driver import (
    LoadGenConfig,
    LoadGenerator,
    presigned_transfers,
    run_sweep,
)
from repro.loadgen.report import LoadReport, SweepPoint, SweepReport
from repro.loadgen.stats import LatencyStats, OpStats, percentile
from repro.loadgen.workload import DEFAULT_MIX, ClientPool, RequestMix

__all__ = [
    "ArrivalProcess",
    "ClientPool",
    "DEFAULT_MIX",
    "FlashCrowdArrivals",
    "LatencyStats",
    "LoadGenConfig",
    "LoadGenerator",
    "LoadReport",
    "OpStats",
    "PoissonArrivals",
    "RampArrivals",
    "RequestMix",
    "SweepPoint",
    "SweepReport",
    "UniformArrivals",
    "ZipfSelector",
    "make_arrivals",
    "percentile",
    "presigned_transfers",
    "run_sweep",
]
