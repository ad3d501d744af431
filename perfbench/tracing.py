"""Call-site tracing of one experiment, and the per-module summary of it.

The library is not changed: `installed(tracer)` rebinds each traced public
function in the module namespace it is called from (protocol calls
`local_training`, harness calls `build_world`, ...) to a wrapper that records
a span, and puts the originals back on exit.  A span is [name, start_ns,
end_ns, parent span index, round id, value], where value is a number read off
the call (bytes written, rounds to fixpoint, edges kept ...) or None.  Spans
stay in memory; `write_spans` writes them out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter_ns

from sparsefuel import fields, harness, neuralnet, protocol


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._round = 0

    def wrap(self, name, fn, value=None, round_arg=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if round_arg is not None:
                self._round = args[round_arg]
            span = [name, 0, 0, stack[-1], self._round, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if value is not None:
                span[5] = value(args, out)
            return out

        return traced


def _edge_count(adjacency) -> int:
    return sum(len(nbrs) for nbrs in adjacency) // 2


# (module, attribute, how to read the span's value, which positional argument
# holds the round id).  Each module is the one whose code makes the call.
_CALL_SITES = (
    (harness, "build_world", None, None),
    (harness, "build_topology", lambda a, out: _edge_count(out.adjacency), None),
    (harness, "sample_local_dataset", None, None),
    (harness, "load_idx", None, None),
    (harness, "make_state", None, None),
    (harness, "run_round", None, 2),
    (harness, "evaluate_objective", None, None),
    (protocol, "local_training", None, None),
    (neuralnet, "gradients", lambda a, out: len(a[1]), None),
    (protocol, "loss_and_accuracy", None, None),
    (protocol, "compress", None, None),
    (protocol, "decompress", None, None),
    (protocol, "encode_wire", None, None),
    (protocol, "to_bytes", lambda a, out: len(out), None),
    (protocol, "from_bytes", None, None),
    (protocol, "fed_avg", None, None),
    (protocol, "similarity_graph", lambda a, out: (_edge_count(out.adj.values()), len(a[1].values)), None),
    (fields, "s_block", None, None),
    (fields, "min_flood", lambda a, out: out[1], None),
    (fields, "g_block", None, None),
    (fields, "bfs_hops", lambda a, out: out[1], None),
    (fields, "c_block", None, None),
    (fields, "broadcast_block", None, None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced call site through the tracer while the block runs."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _CALL_SITES]
    from_topology = fields.FieldGraph.__dict__["from_topology"]
    try:
        for module, attr, value, round_arg in _CALL_SITES:
            setattr(module, attr, tracer.wrap(attr, getattr(module, attr), value, round_arg))
        fields.FieldGraph.from_topology = staticmethod(
            tracer.wrap("from_topology", from_topology.__func__)
        )
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        fields.FieldGraph.from_topology = from_topology


# Every per-round span belongs to one group; a group's time is the sum of its
# spans' self times, so the groups add up to the traced rounds.  Loss calls
# are split by their caller: under run_round they score similarity, under
# evaluate_objective they are evaluation.
_GROUP = {
    "local_training": "train",
    "gradients": "train",
    "compress": "compress",
    "decompress": "compress",
    "encode_wire": "compress",
    "to_bytes": "serialize",
    "from_bytes": "parse",
    "fed_avg": "fedavg",
    "run_round": "protocol",
    "evaluate_objective": "evaluate",
    "similarity_graph": "fields",
    "from_topology": "fields",
    "s_block": "fields",
    "min_flood": "fields",
    "g_block": "fields",
    "bfs_hops": "fields",
    "c_block": "fields",
    "broadcast_block": "fields",
}
_SETUP = ("build_world", "build_topology", "sample_local_dataset", "load_idx", "make_state")


def summarize(spans: list[list], records) -> dict[str, float]:
    """Per-module metrics of one traced experiment from its spans and its
    per-round MetricsRecords (see BENCHMARK.json).  Setup metrics are whole
    calls; the others are per round."""
    rounds = len(records)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    setup_ms = dict.fromkeys(_SETUP, 0.0)
    group_ms = dict.fromkeys(set(_GROUP.values()) | {"similarity"}, 0.0)
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    for index, (name, start, end, parent, _, value) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if value is not None:
            values.setdefault(name, []).append(value)
        if name in _SETUP:
            setup_ms[name] += (end - start) / 1e6
            continue
        group = _GROUP.get(name)
        if name == "loss_and_accuracy":
            group = "similarity" if spans[parent][0] == "run_round" else "evaluate"
        group_ms[group] += (end - start - child_ns[index]) / 1e6
    total = lambda name: sum(values.get(name, ()))
    kept = sum(v[0] for v in values.get("similarity_graph", ()))
    scored = sum(v[1] for v in values.get("similarity_graph", ()))

    per_round = lambda x: x / rounds
    return {
        "environment.build_topology_ms": setup_ms["build_topology"],
        "environment.topology_edges": total("build_topology"),
        "environment.sample_data_ms": setup_ms["sample_local_dataset"],
        "environment.load_idx_ms": setup_ms["load_idx"],
        "harness.build_world_ms": setup_ms["build_world"],
        "harness.make_state_ms": setup_ms["make_state"],
        "harness.evaluate_ms_per_round": per_round(group_ms["evaluate"]),
        "neuralnet.train_ms_per_round": per_round(group_ms["train"]),
        "neuralnet.sgd_steps_per_round": per_round(calls.get("gradients", 0)),
        "neuralnet.train_samples_per_s": total("gradients") / (group_ms["train"] / 1e3),
        "neuralnet.loss_calls_per_round": per_round(calls.get("loss_and_accuracy", 0)),
        "compression.compress_ms_per_round": per_round(group_ms["compress"]),
        "compression.serialize_ms_per_round": per_round(group_ms["serialize"]),
        "compression.parse_ms_per_round": per_round(group_ms["parse"]),
        "compression.blobs_per_round": per_round(calls.get("to_bytes", 0)),
        "compression.encoded_kb_per_round": per_round(total("to_bytes") / 1024),
        "protocol.similarity_ms_per_round": per_round(group_ms["similarity"]),
        "protocol.edges_scored_per_round": per_round(scored),
        "protocol.edges_kept_ratio": kept / scored if scored else 0.0,
        "protocol.fedavg_ms_per_round": per_round(group_ms["fedavg"]),
        "protocol.self_ms_per_round": per_round(group_ms["protocol"]),
        "protocol.federations": records[-1].federation_count,
        "protocol.broadcast_kb_per_round": per_round(sum(r.bytes_broadcast for r in records) / 1024),
        "protocol.collect_kb_per_round": per_round(sum(r.bytes_collect for r in records) / 1024),
        "protocol.disseminate_kb_per_round": per_round(sum(r.bytes_disseminate for r in records) / 1024),
        "fields.ms_per_round": per_round(group_ms["fields"]),
        "fields.flood_rounds_per_round": per_round(total("min_flood")),
        "fields.bfs_rounds_per_round": per_round(total("bfs_hops")),
    }


def median_metrics(summaries: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}


def write_spans(path: str, experiments: list[list[list]]) -> None:
    """One tab-separated line per span, experiments numbered from 0."""
    lines = ["experiment\tspan\tname\tstart_ns\tend_ns\tparent\tround\tvalue"]
    for number, spans in enumerate(experiments):
        for index, (name, start, end, parent, round_id, value) in enumerate(spans):
            value = "" if value is None else str(value)
            lines.append(f"{number}\t{index}\t{name}\t{start}\t{end}\t{parent}\t{round_id}\t{value}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
