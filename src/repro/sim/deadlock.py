"""Run-time deadlock diagnosis.

The engine quiescing with unfinished agents *is* the deadlock; this module
explains it. It builds a wait-for graph over agents — who is blocked on a
word, on buffer space, or on a queue grant, and which agent could unblock
them — and extracts a cycle when one exists (circular waits, as in
Figs. 7-9) or reports the blocking chain otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.agents import (
    _F_DOWN_FULL,
    _W_FULL,
    CellAgent,
    ForwarderAgent,
    MessageFlow,
    _Agent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runtime import Simulator


def _pusher(sim: "Simulator", flow: MessageFlow, hop: int) -> _Agent | None:
    """The agent that pushes words into ``flow``'s queue on ``hop``."""
    if hop == 0:
        return sim.cell_agents.get(flow.message.sender)
    return sim.forwarders.get((flow.message.name, hop - 1))


def _consumer(sim: "Simulator", flow: MessageFlow, hop: int) -> _Agent | None:
    """The agent that pops words out of ``flow``'s queue on ``hop``."""
    if hop == flow.hops - 1:
        return sim.cell_agents.get(flow.message.receiver)
    return sim.forwarders.get((flow.message.name, hop))


def _queue_hop_map(sim: "Simulator") -> dict[str, dict[int, int]]:
    """Per-flow ``id(queue) -> hop`` lookup, built once per diagnosis.

    Replaces a linear scan of ``flow.queues`` per blocked-agent edge —
    quadratic on arrays where many flows share long routes — with one
    prebuilt map. Keyed by queue identity (the scan it replaces used
    ``is``), per flow because a physical queue can serve different
    flows over a run.
    """
    return {
        name: {id(q): hop for hop, q in enumerate(flow.queues)}
        for name, flow in sim.flows.items()
    }


def build_wait_graph(sim: "Simulator") -> dict[str, set[str]]:
    """Edges ``waiter -> could-unblock-it`` over unfinished agents."""
    graph: dict[str, set[str]] = {}
    queue_hops = _queue_hop_map(sim)
    for agent in sim.all_agents():
        if agent.done:
            continue
        edges: set[str] = set()
        queue = agent.wait_queue
        if queue is not None and queue.assigned is not None:
            flow = sim.flows[queue.assigned]
            hop = queue_hops[queue.assigned].get(id(queue))
            if hop is not None:
                other = (
                    _consumer(sim, flow, hop)
                    if agent.waiting in (_W_FULL, _F_DOWN_FULL)
                    else _pusher(sim, flow, hop)
                )
                if other is not None and not other.done:
                    edges.add(other.name)
        if agent.wait_grant is not None:
            flow, hop = agent.wait_grant
            link = flow.route[hop]
            state = sim.manager.links.get(link)
            if state is not None:
                for q in state.queues:
                    if q.assigned is None:
                        continue
                    holder_flow = sim.flows[q.assigned]
                    holder_hop = queue_hops[q.assigned].get(id(q))
                    if holder_hop is None:
                        continue
                    other = _consumer(sim, holder_flow, holder_hop)
                    if other is not None and not other.done:
                        edges.add(other.name)
            # Waiting for words that were never even requested (e.g. a
            # receiver whose sender is itself stuck): the party that would
            # push on this hop is what unblocks us.
            pusher = _pusher(sim, flow, hop)
            if pusher is not None and not pusher.done and pusher is not agent:
                edges.add(pusher.name)
        graph[agent.name] = edges
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle in the wait-for graph, or None.

    Returns the node sequence of the cycle (first node repeated at the
    end) when one exists.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    parent: dict[str, str] = {}
    for start in graph:
        if color[start] != WHITE:
            continue
        # Each frame carries an index cursor into its sorted neighbor
        # list: advancing is O(1) where the former ``nbrs.pop(0)`` was
        # O(n) per step — quadratic per node on dense wait graphs.
        # Neighbors stay sorted so the returned cycle is deterministic
        # whatever order the graph's sets were built in.
        stack: list[list] = [[start, sorted(graph[start]), 0]]
        color[start] = GRAY
        while stack:
            frame = stack[-1]
            node, nbrs, cursor = frame
            advanced = False
            while cursor < len(nbrs):
                nxt = nbrs[cursor]
                cursor += 1
                if nxt not in graph:
                    continue
                if color[nxt] == GRAY:
                    cycle = [nxt]
                    cur = node
                    while cur != nxt:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.append(nxt)
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    frame[2] = cursor
                    stack.append([nxt, sorted(graph[nxt]), 0])
                    advanced = True
                    break
            if not advanced:
                frame[2] = cursor
                color[node] = BLACK
                stack.pop()
    return None


def diagnose(sim: "Simulator") -> tuple[list[str], list[str] | None]:
    """Blocked-agent descriptions plus a wait-for cycle if present."""
    blocked = [
        agent.wait_reason() or f"{agent.name}: blocked (no detail)"
        for agent in sim.all_agents()
        if not agent.done
    ]
    cycle = find_cycle(build_wait_graph(sim))
    return blocked, cycle
