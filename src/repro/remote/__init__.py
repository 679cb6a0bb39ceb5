"""Remote visualization (paper sections 1, 2.1).

"Because of the collaborative nature of the overall accelerator
modeling project, the visualization technology developed is for both
desktop and remote visualization settings. ...  the storage savings
mean that the data can be more efficiently transferred from the
computer where it was generated to a remote computer on a scientist's
desk thousands of miles away."

A :class:`VisualizationService` holds partitioned frames (the
supercomputer side); a :class:`VisualizationClient` requests hybrid
extractions at a chosen threshold and receives them over a socket with
an optional bandwidth throttle, so the bytes-per-frame /
interactivity tradeoff can be measured.  The service is a multi-tenant
asyncio server with a shared coalescing result cache, admission
control, per-session backpressure, and graceful shedding, sized for
thousands of concurrent sessions.

Modules
-------
protocol   length-prefixed message framing and payload codecs
           (blocking-socket and asyncio-stream transports)
service    the data-side multi-tenant asyncio service (cache, admission
           control, backpressure, circuit breaker, live stats)
client     the desktop side (requests, timing, byte accounting,
           jittered retry, BUSY-aware backoff)
loadgen    seeded chaos client fleet for load/abuse testing
"""

from repro.remote.protocol import Message, MessageType
from repro.remote.service import VisualizationService
from repro.remote.client import VisualizationClient
from repro.remote.loadgen import ChaosSchedule, FleetReport, run_fleet

__all__ = [
    "Message",
    "MessageType",
    "VisualizationService",
    "VisualizationClient",
    "ChaosSchedule",
    "FleetReport",
    "run_fleet",
]
