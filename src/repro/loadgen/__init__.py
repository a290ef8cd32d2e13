"""repro.loadgen -- the background load a simnet scenario puts on its stack.

Simulated clients on the shared simulated clock fire skewed (Zipfian) and
bursty (Poisson / flash-crowd) request mixes at the JSON-RPC gateway through
:class:`~repro.rpc.client.MarketplaceClient`, while the scenario's
marketplace tasks run; the scenario report carries the load's deterministic
metrics under ``load``.  ``presigned_transfers`` is the benchmark's funded
transfer fixture.

See ``docs/simnet.md`` for the scenarios that attach it.
"""

from repro.loadgen.arrivals import (
    ArrivalProcess,
    FlashCrowdArrivals,
    PoissonArrivals,
    ZipfSelector,
    make_arrivals,
)
from repro.loadgen.driver import LoadGenConfig, LoadGenerator, presigned_transfers
from repro.loadgen.report import LoadReport
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
    "RequestMix",
    "ZipfSelector",
    "make_arrivals",
    "percentile",
    "presigned_transfers",
]
