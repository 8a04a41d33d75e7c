"""The campaign service: the fabric behind a socket.

``repro serve DIR`` exposes one campaign directory (see
:mod:`repro.sched`) over TCP and/or Unix-domain sockets, speaking the
newline-delimited JSON protocol of :mod:`repro.service.protocol`.  The
server is a *transport, not a redesign*: every verb bottoms out in the
same journal appends and replays workers already coordinate through,
so the fabric's durability, reclaim, and chaos guarantees — exactly-one
terminal state per task, bit-identical reports — are unchanged whether
work arrived over a socket or a shared filesystem.

Pieces:

* :mod:`repro.service.protocol` — frames, verbs, request ids, errors;
* :mod:`repro.service.server` — the asyncio server (auth, backpressure,
  follow streaming, graceful drain, counters);
* :mod:`repro.service.client` — the synchronous client library with
  retry/backoff (used by ``repro campaign submit/status --server``).
"""
