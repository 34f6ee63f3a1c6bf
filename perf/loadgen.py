"""Closed-loop load over the wire: N connections, one request each in flight.

Callers of a query service wait for their reply before asking again, so
the generator is a closed loop; with one connection per core nothing
queues behind the admission limit. All connections pull their next op from
one shared cursor over the workload's sequence, so the *issued* order is
the seeded order whatever the completion order.
"""

from __future__ import annotations

import asyncio
import gc
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.server.aclient import AsyncResilientClient

import datagen

#: (op index, op, send time, latency in seconds, reply or None on failure)
Record = Tuple[int, tuple, float, float, Optional[Dict[str, object]]]


async def send(client: AsyncResilientClient, op: tuple, extra: Optional[dict] = None):
    """One op through the client's public verbs; returns the ok-reply."""
    extra = extra or {}
    if op[0] == "update":
        _, start, end, subject, value = op
        return await client.update(
            "subject_range", start, end, subject=subject, value=value, **extra
        )
    request = datagen.wire_request(op)
    return await client.query(
        request["query"], subject=request["subject"],
        semantics=request["semantics"], **extra,
    )


async def repetition(
    address: Sequence, ops: Sequence[tuple], connections: int,
    tag: Optional[Callable[[int], dict]] = None,
    on_reply: Optional[Callable[[Record], None]] = None,
) -> Tuple[float, List[Record]]:
    """Run ``ops`` once over ``connections`` connections; (wall, records).

    ``tag(index)`` adds fields to the wire request (the traced run's
    request id); ``on_reply`` sees each record as it completes.
    """
    host, port = address
    clients = [AsyncResilientClient(host, port, seed=i) for i in range(connections)]
    records: List[Record] = []
    cursor = iter(range(len(ops)))
    try:
        for client in clients:  # connect before the clock starts
            await client.ping()
        gc.collect()
        started = perf_counter()

        async def connection(client: AsyncResilientClient) -> None:
            for index in cursor:
                op = ops[index]
                before = perf_counter()
                try:
                    reply = await send(client, op, tag(index) if tag else None)
                except ReproError:
                    reply = None
                record = (index, op, before, perf_counter() - before, reply)
                records.append(record)
                if on_reply is not None:
                    on_reply(record)

        await asyncio.gather(*(connection(client) for client in clients))
        wall = perf_counter() - started
    finally:
        for client in clients:
            await client.aclose()
    return wall, records


async def sequential(address: Sequence, ops: Sequence[tuple]) -> List[Record]:
    """Send ``ops`` one at a time on one connection (warm-up, probes)."""
    _wall, records = await repetition(address, ops, 1)
    return records
