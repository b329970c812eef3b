"""REPRO005 positive fixture: numpy scalars leaking into repr paths."""
import json

import numpy as np


def fingerprint(arena):
    values = arena.values_array()
    return f"{values[0]}:{values[-1]}"  # flagged: np scalar in f-string


def render(columns):
    arr = np.asarray(columns)
    return str(arr[3])  # flagged: str() of a numpy scalar


def export(arena):
    tids = arena.tids_array()
    return json.dumps({"first": tids[0]})  # flagged: json.dumps rejects it


def snapshot_state(self):
    col = np.zeros(4)
    return {"head": col[0]}  # flagged: serializer payload


def emit(ctx, arena, i):
    times = arena.event_time_column()
    ctx.record("result", {"event_time": times[i]})  # flagged: emission


def reduced(values):
    arr = np.asarray(values)
    return f"max={arr.max()}"  # flagged: reducer returns a numpy scalar


def emit_matches(ctx, found):
    ctx.record("result", {"first": found.match_tids[0]})  # flagged: CSR array attribute


def fingerprint_rows(found):
    counts = found.counts
    return f"{counts[0]}:{found.offsets[-1]}"  # flagged: CSR row counts / offsets


def to_json_merged(parts, runs):
    merged = MatchBatch.interleave(parts)
    whole = MatchBatch.concat(runs)
    return json.dumps({"a": merged[0], "b": whole[0]})  # flagged: still arrays
