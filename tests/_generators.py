"""Seeded random instance generators and a check of compiled line
sources, shared by the test modules."""

from __future__ import annotations

import ast
import random

from ipmatch import TemporalGraph, PatternGraph, build_graph, pattern_from_triples


def random_graph(rng: random.Random, max_nodes: int = 12, max_edges: int = 40,
                 parallel_prob: float = 0.45, self_loop_prob: float = 0.06) -> TemporalGraph:
    """Small dense-ish temporal graph with frequent parallel edges."""
    n_nodes = rng.randint(2, max_nodes)
    n_edges = rng.randint(1, max_edges)
    labels = [f"n{i}" for i in range(n_nodes)]
    t_max = rng.choice([2, 4, 8, 12])
    edges, pairs = [], []
    for _ in range(n_edges):
        r = rng.random()
        if pairs and r < parallel_prob:
            u, v = rng.choice(pairs)
        elif r < parallel_prob + self_loop_prob:
            u = rng.choice(labels)
            v = u
            pairs.append((u, v))
        else:
            u, v = rng.choice(labels), rng.choice(labels)
            pairs.append((u, v))
        edges.append((u, v, rng.randint(1, t_max)))
    return build_graph(edges)


def random_pattern(rng: random.Random, max_edges: int = 4) -> PatternGraph:
    """Random pattern with dense node ids; occasional self-loops and EQUAL steps.

    Edge times are drawn from 1..m so simultaneous pattern edges are
    common; all-equal-time patterns (duration 1) are produced outright
    some of the time so that tight windows stay exercised.
    """
    m = rng.randint(1, max_edges)
    nv = rng.randint(1, min(5, m + 2))
    all_equal = rng.random() < 0.2
    triples = []
    for _ in range(m):
        u, v = rng.randrange(nv), rng.randrange(nv)
        if u == v and nv > 1 and rng.random() < 0.85:
            v = (u + 1) % nv
        t = 1 if all_equal else rng.randint(1, m)
        triples.append((u, v, t))
    used = sorted({x for (u, v, _) in triples for x in (u, v)})
    remap = {x: i for i, x in enumerate(used)}
    return pattern_from_triples(
        [(remap[u], remap[v], t) for (u, v, t) in triples], node_count=len(used)
    )


def full_span(g: TemporalGraph) -> int:
    return max(g.times) - min(g.times) + 1


def parallel_family(k: int) -> TemporalGraph:
    """Static path a->b->c->d with k parallel temporal edges per static edge.

    The three time blocks are laid out in reverse path order, so every
    static match explodes into k^3 temporal candidates while no
    time-ordered assignment exists at all.
    """
    edges = []
    for i in range(1, k + 1):
        edges.append(("a", "b", 2 * k + i))
        edges.append(("b", "c", k + i))
        edges.append(("c", "d", i))
    return build_graph(edges)


def fstring_fields(node: ast.AST, items) -> list[ast.expr]:
    """The field expressions of the f-string ``node``, in order, once its
    text between fields is checked to be exactly the text of ``items`` (a
    ``matcher._line_layout`` list of literals and fields, or a stretch of
    one) and no field is converted or given a format spec."""
    assert isinstance(node, ast.JoinedStr)
    texts, fields, text = [], [], ""
    for value in node.values:
        if isinstance(value, ast.Constant):
            text += value.value
        else:
            assert value.conversion == -1 and value.format_spec is None
            texts.append(text)
            fields.append(value.value)
            text = ""
    expected, gap = [], ""
    for x in items:
        if isinstance(x, str):
            gap += x
        else:
            expected.append(gap)
            gap = ""
    assert texts + [text] == expected + [gap]
    return fields
