"""Embedding-as-a-service — the serving tier of the reproduction.

A long-running daemon (``repro serve``) keeps one warm
:class:`~repro.runtime.cache.ConstructionCache` and the cached graph arrays
resident and answers embed/measure/simulate queries over HTTP.  The key
mechanism is the **async request coalescer**: the requests that queue
while the evaluator is busy form the next batch, grouped by ``(guest
kind+shape, host kind+shape)`` signature, stacked into the batched survey layer's
``(batch, size)`` matrices and answered by one fused kernel pass — with
responses byte-identical to the per-request reference path.

``protocol``
    The JSON wire format: :class:`~repro.service.protocol.ServiceRequest`
    and its lossless conversion to survey scenarios.
``coalescer``
    :class:`~repro.service.coalescer.RequestCoalescer` — the asyncio
    batch collector with a serialized evaluation thread.
``server``
    :class:`~repro.service.server.ReproService` (the resident evaluator,
    periodic atomic cache snapshots, ``/stats`` counters) and the stdlib
    ThreadingHTTPServer front end.
``client``
    :class:`~repro.service.client.ServiceClient`, the thin SDK behind
    ``repro invoke``.
"""

from .client import DEFAULT_RETRY, ServiceClient, ServiceError
from .coalescer import CoalescerClosed, RequestCoalescer
from .protocol import OPS, ProtocolError, ServiceRequest, parse_graph_spec
from .server import (
    DEFAULT_PORT,
    ReproService,
    ServiceHTTPServer,
    ServiceOverloadedError,
    ServiceTimeoutError,
    serve,
)

__all__ = [
    "OPS",
    "DEFAULT_PORT",
    "DEFAULT_RETRY",
    "CoalescerClosed",
    "ProtocolError",
    "RequestCoalescer",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceOverloadedError",
    "ServiceRequest",
    "ServiceTimeoutError",
    "parse_graph_spec",
    "serve",
]
