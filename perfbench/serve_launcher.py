"""Run ``python -m repro serve`` as the benchmark's own launcher.

    python3 perfbench/serve_launcher.py OUT.json TRACE -- [serve arguments]

Calls the same ``repro.net.serve.main`` that ``python -m repro serve``
calls, after wrapping the ``DatabaseServer`` name that module looks up so
the launcher keeps the server object.  When ``serve`` returns (SIGTERM or
SIGINT), the launcher writes the server's own counters, the retained WAL
records, the process's peak RSS and, with ``TRACE`` = 1, the per-layer
values from the hooks below to ``OUT.json``.

The client switches the trace phase in-band: a batch holding only
``SELECT 'perfbench:run'`` ends set-up, one holding only
``SELECT 'perfbench:verify'`` ends the timed phase.  The markers are
ordinary statements, sent and counted like any other.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from common import require_source

RUN_MARKER = "SELECT 'perfbench:run'"
VERIFY_MARKER = "SELECT 'perfbench:verify'"


def _marker(batch) -> str:
    if len(batch) == 1 and batch[0][0] == "query":
        return {RUN_MARKER: "run", VERIFY_MARKER: "verify"}.get(batch[0][1], "")
    return ""


def install_server_hooks(tracer, patcher, state: dict) -> None:
    """Spans over the net layer: frame decode/encode, batches, executor hop."""
    import layers

    patcher.spans(
        "net.protocol.decode", "repro.net.protocol:FrameDecoder.frames", materialize=True
    )
    patcher.spans("net.protocol.decode", "repro.net.protocol:decode_payload")
    patcher.spans(
        "net.protocol.encode", "repro.net.protocol:iter_result_frames", materialize=True
    )
    submitted = {}

    def run_batch(fn):
        @functools.wraps(fn)
        async def wrapper(self, session, batch):
            start = time.perf_counter()
            op = tracer.new_op()
            submitted[id(batch)] = (op, start)
            try:
                return await fn(self, session, batch)
            finally:
                del submitted[id(batch)]
                tracer.detached("net.server.run_batch", start, time.perf_counter(), op=op)

        return wrapper

    def execute_batch(fn):
        @functools.wraps(fn)
        def wrapper(self, batch, autocommit):
            marker = _marker(batch)
            if marker == "verify":
                state["after"] = layers.engine_counters(self.db)
                tracer.phase = "verify"
            op, submitted_at = submitted.get(id(batch), (None, None))
            frame = tracer.begin("net.server.batch", op=op)
            if submitted_at is not None:
                tracer.count("net.server.executor_wait_s", frame.start - submitted_at)
            tracer.count("net.server.batch_statements", len(batch))
            for entry in batch:
                if entry[0] in ("execute", "auto"):
                    tracer.count(f"net.server.prepare_{entry[0]}")
            try:
                return fn(self, batch, autocommit)
            finally:
                tracer.end(frame)
                if marker == "run":
                    state["before"] = layers.engine_counters(self.db)
                    tracer.phase = "run"

        return wrapper

    patcher.patch(
        ["repro.net.server:DatabaseServer._run_batch"], run_batch, "net.server.run_batch"
    )
    patcher.patch(
        ["repro.net.server:DatabaseServer._execute_batch"], execute_batch, "net.server.batch"
    )


def server_values(tracer, state: dict) -> dict:
    """Per-layer values measured inside the server process."""
    import layers

    t = tracer
    ratio = layers.ratio
    ops = int(t.get_count("net.server.batch_statements"))
    deltas = None
    if "before" in state and "after" in state:
        deltas = layers.counter_delta(state["before"], state["after"])
    batches = t.get_calls("net.server.batch")
    hits, misses = t.get_count("net.server.prepare_execute"), t.get_count("net.server.prepare_auto")
    net = {
        "net.protocol.decode_us": ratio(
            t.get_total("net.protocol.decode") * 1e6, t.get_count("net.protocol.decode.rows")
        ),
        "net.protocol.encode_us": ratio(
            t.get_total("net.protocol.encode") * 1e6, t.get_calls("net.protocol.encode")
        ),
        "net.server.batch_size": ratio(ops, batches),
        "net.server.auto_prepare_hit_ratio": ratio(hits, hits + misses),
        "net.server.executor_wait_us": ratio(t.get_count("net.server.executor_wait_s") * 1e6, batches),
        "net.server.batch_us": ratio(t.get_total("net.server.batch") * 1e6, batches),
    }
    values = layers.compute(t, ops, deltas, net, root="net.server.batch")
    return {"values": values, "ops": ops}


def main(argv) -> int:
    out_path, trace = argv[0], argv[1] == "1"
    serve_args = argv[3:] if len(argv) > 2 and argv[2] == "--" else argv[2:]
    require_source()
    import repro.net.serve as serve

    captured = {}
    base = serve.DatabaseServer

    class LaunchedServer(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured["server"] = self

    serve.DatabaseServer = LaunchedServer
    tracer = patcher = None
    state: dict = {}
    if trace:
        import tracing

        tracer = tracing.Tracer()
        patcher = tracing.Patcher(tracer)
        tracing.install_engine_hooks(tracer, patcher)
        install_server_hooks(tracer, patcher, state)
    try:
        code = serve.main(serve_args)
    finally:
        serve.DatabaseServer = base
        if patcher is not None:
            patcher.restore()
    server = captured.get("server")
    report = {"exit": code}
    if server is not None:
        report.update(
            {
                "stats": dict(server.stats),
                "records_retained": len(server.db.wal.records()),
            }
        )
    if tracer is not None:
        report["trace"] = server_values(tracer, state)
        report["trace"]["absent_hooks"] = tracer.absent
        report["trace"]["spans"] = tracer.spans
        report["trace"]["dropped_spans"] = tracer.dropped
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
