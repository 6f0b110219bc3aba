"""Seeded workload generators for the ipmatch benchmark.

Each workload is a graph written in SNAP format plus a list of queries.
Graphs depend only on the workload's parameters and the seed, so one
seed always gives byte-identical files.  Node labels are integers; the
seed also shuffles which label a structural role gets.

The parameters are fixed here, not taken from the command line, so that
every run of one workload measures the same amount of work.  README.md
in this directory gives the reason for each choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DAY = 86400
HOUR = 3600
MINUTE = 60

# Paranjape, Benson & Leskovec, "Motifs in Temporal Networks" (WSDM 2017):
# pattern triples (source, target, rank); equal ranks are simultaneous.
MOTIFS = {
    "ping-pong": [(0, 1, 1), (1, 0, 2)],
    "triangle": [(0, 1, 1), (1, 2, 2), (2, 0, 3)],
    "broadcast-reply": [(0, 1, 1), (0, 2, 1), (1, 0, 2)],
    "star3-simultaneous": [(0, 1, 1), (0, 2, 1), (0, 3, 1)],
    "relay-equal": [(0, 1, 1), (1, 2, 1)],
}

PARAMS = {
    "scan-sparse": {
        "generator": "uniform", "nodes": 1000, "edges": 20000, "span_s": 30 * DAY,
        "queries": ["path-3", "path-4"],
        "deltas_s": [HOUR, 6 * HOUR, 12 * HOUR], "strategies": ["index"],
        "cli": ("path-3", 12 * HOUR, "index"),
    },
    "motif-dense": {
        "generator": "email", "nodes": 400, "messages": 2000, "span_s": 30 * DAY,
        "zipf_s": 1.1, "recipients": [1, 1, 1, 1, 1, 1, 1, 2, 3, 4],
        "reply_p": 0.4, "reply_mean_s": 10 * MINUTE,
        "queries": ["ping-pong", "triangle", "broadcast-reply", "star3-simultaneous",
                    "path-3"],
        "deltas_s": [HOUR, 6 * HOUR], "strategies": ["index"],
        "cli": ("path-3", 24 * HOUR, "index"),
    },
    "multi-edge": {
        "generator": "multi", "nodes": 30, "out_degree": 4, "per_pair": 100,
        "span_s": 2 * DAY, "tick_s": MINUTE,
        "queries": ["path-2", "ping-pong", "triangle", "relay-equal"],
        "deltas_s": [3 * MINUTE], "strategies": ["simple", "index"], "baseline": True,
        "cli": ("path-2", 3 * MINUTE, "index"),
    },
}

WORKLOADS = tuple(PARAMS)


@dataclass(frozen=True)
class Query:
    """One query of a workload: pattern name, window and strategy."""

    pattern: str
    delta: int
    strategy: str

    @property
    def name(self) -> str:
        return f"{self.pattern}@{self.delta}s/{self.strategy}"


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # string seeds hash with sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{part}")


def uniform_edges(rng: random.Random, nodes: int, edges: int, span_s: int) -> list:
    """Uniform random directed edges at uniform random times.

    Every node sends and receives ``edges // nodes`` edges, to and from
    random other nodes.  Fixing the degrees removes the seed-to-seed
    swing in match counts that random degrees would add.
    """
    sources = [u for u in range(nodes) for _ in range(edges // nodes)]
    targets = sources[:]
    rng.shuffle(targets)
    for i, u in enumerate(sources):
        while targets[i] == u:  # move a self-loop's target elsewhere
            j = rng.randrange(len(targets))
            if targets[j] != u and sources[j] != targets[i]:
                targets[i], targets[j] = targets[j], targets[i]
    return [(u, v, rng.randrange(span_s)) for u, v in zip(sources, targets)]


def _quotas(total: int, weights: list[float]) -> list[int]:
    """Whole shares of ``total`` in proportion to ``weights`` (largest remainder)."""
    exact = [total * w / sum(weights) for w in weights]
    shares = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: shares[i] - exact[i])
    for i in by_remainder[:total - sum(shares)]:
        shares[i] += 1
    return shares


def email_edges(rng: random.Random, nodes: int, messages: int, span_s: int,
                zipf_s: float, recipients: list[int], reply_p: float,
                reply_mean_s: int) -> list:
    """Email-like traffic with Zipf-skewed senders and recipients.

    The node of Zipf rank ``r`` sends exactly its share of the messages
    and receives exactly its share of the recipient slots, and message
    ``i`` goes to ``recipients[i % len(recipients)]`` people at one
    timestamp, which becomes simultaneous edges.  Exactly ``reply_p`` of
    the recipients reply, each after an exponential delay.  So the hub
    degrees, the simultaneous stars and the number of replies do not
    vary with the seed; it decides which label has which rank, who
    writes to whom, who replies and when.  With drawn degrees the largest
    output of this workload varied twice as much from seed to seed.
    """
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(nodes)]
    label = list(range(nodes))
    rng.shuffle(label)
    sizes = [recipients[i % len(recipients)] for i in range(messages)]
    senders = [label[r] for r, k in enumerate(_quotas(messages, weights)) for _ in range(k)]
    rng.shuffle(senders)
    slots = [label[r] for r, k in enumerate(_quotas(sum(sizes), weights)) for _ in range(k)]
    rng.shuffle(slots)
    replies = round(reply_p * len(slots))
    replied = [True] * replies + [False] * (len(slots) - replies)
    rng.shuffle(replied)
    out = []
    pos = 0  # slots before pos are used
    for sender, size in zip(senders, sizes):
        t = rng.randrange(span_s)
        to: list[int] = []
        while len(to) < size:
            # the next unused slot that is neither the sender nor already addressed
            j = next((j for j in range(pos, len(slots))
                      if slots[j] != sender and slots[j] not in to), None)
            if j is None:
                break
            slots[pos], slots[j] = slots[j], slots[pos]
            to.append(slots[pos])
            pos += 1
        out.extend((sender, r, t) for r in to)
        for r, reply in zip(to, replied[pos - len(to):pos]):
            if reply:
                out.append((r, sender, t + 1 + int(rng.expovariate(1.0 / reply_mean_s))))
    return out


def multi_edges(rng: random.Random, nodes: int, out_degree: int, per_pair: int,
                span_s: int, tick_s: int) -> list:
    """Few node pairs, each with many parallel edges on a coarse clock.

    The pairs form a random digraph in which every node has
    ``out_degree`` out- and in-neighbours, the union of that many
    permutations.  Fixing the degrees fixes the number of two-edge paths
    between pairs, which would otherwise swing match counts by seed.
    """
    pairs: set[tuple[int, int]] = set()
    for _ in range(out_degree):
        while True:
            targets = list(range(nodes))
            rng.shuffle(targets)
            new = list(enumerate(targets))
            if all(u != v and (u, v) not in pairs for u, v in new):
                break
        pairs.update(new)
    slots = span_s // tick_s
    out = []
    for u, v in sorted(pairs):
        out.extend((u, v, tick_s * rng.randrange(slots)) for _ in range(per_pair))
    return out


def generate_edges(workload: str, seed: int) -> list[tuple[str, str, int]]:
    """The workload's edges as (source label, target label, time) triples."""
    p = PARAMS[workload]
    rng = _rng(workload, seed, "graph")
    if p["generator"] == "uniform":
        raw = uniform_edges(rng, p["nodes"], p["edges"], p["span_s"])
    elif p["generator"] == "email":
        raw = email_edges(rng, p["nodes"], p["messages"], p["span_s"], p["zipf_s"],
                          p["recipients"], p["reply_p"], p["reply_mean_s"])
    else:
        raw = multi_edges(rng, p["nodes"], p["out_degree"], p["per_pair"], p["span_s"],
                          p["tick_s"])
    return [(str(u), str(v), t) for u, v, t in raw]


def write_snap(edges: list, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{u} {v} {t}\n" for u, v, t in edges)


def queries(workload: str) -> list[Query]:
    p = PARAMS[workload]
    return [Query(name, delta, strategy)
            for name in p["queries"] for delta in p["deltas_s"]
            for strategy in p["strategies"]]


def cli_query(workload: str) -> Query:
    """The query the whole ``ipmatch query`` run answers: the one with most output."""
    return Query(*PARAMS[workload]["cli"])


def build_pattern(name: str):
    import ipmatch  # not at the top: generating graphs needs no package

    if name.startswith("path-"):
        return ipmatch.generate_path_query(int(name.split("-")[1]))
    return ipmatch.pattern_from_triples(MOTIFS[name])
