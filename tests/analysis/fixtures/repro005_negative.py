"""REPRO005 negative fixture: numpy values converted before the sink."""
import json

import numpy as np


def fingerprint(arena):
    values = arena.values_array()
    return f"{float(values[0])}:{float(values[-1])}"


def render(columns):
    arr = np.asarray(columns)
    return str(arr[3].item())


def export(arena):
    tids = arena.tids_array()
    return json.dumps({"first": int(tids[0]), "all": tids.tolist()})


def snapshot_state(self):
    col = np.zeros(4)
    return {"head": float(col[0]), "rest": col[1:].tolist()}


def emit(ctx, arena, i):
    times = arena.event_time_column()
    ctx.record("result", {"event_time": float(times[i])})


def plain_lists(record):
    # Plain python containers pass through untouched.
    values = [1.0, 2.0]
    return f"{values[0]}" + json.dumps({"v": values[1]})


def emit_matches(ctx, found, tids):
    # The CSR result plane converts once, at the record boundary.
    for tid, row in zip(tids, found.rows()):
        ctx.record("result", {"tid": tid, "matches": row})
    ctx.record("summary", {"first": int(found.match_tids[0])})


def fingerprint_rows(found):
    counts = found.counts.tolist()
    return f"{counts[0]}:{int(found.offsets[-1])}:{len(found)}"
