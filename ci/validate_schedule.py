#!/usr/bin/env python3
"""Schema validator for the `spmd-lint --emit-schedule` artifact.

Checks the JSON shape the runtime conformance checker
(`infomap_mpisim::schedule`) consumes: version, entry structure, node
grammar, and that every collective kind is one the runtime actually
stamps. Run as: python3 ci/validate_schedule.py <schedule.json>
"""

import json
import sys

# Kinds Comm::stamp can produce (crates/mpisim/src/comm.rs).
RUNTIME_KINDS = {
    "barrier",
    "allreduce_f64",
    "allreduce_u64",
    "allreduce_with",
    "allgatherv",
    "allgather_parts",
    "alltoallv",
    "alltoallv_reduce",
    "broadcast",
}

NODE_KINDS = {"seq", "coll", "alt", "loop", "fn", "ret"}


def fail(msg):
    print(f"validate_schedule: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def walk(node, path):
    if not isinstance(node, dict):
        fail(f"{path}: node is not an object")
    t = node.get("t")
    if t not in NODE_KINDS:
        fail(f"{path}: unknown node kind {t!r}")
    colls = 0
    if t == "seq":
        items = node.get("items")
        if not isinstance(items, list):
            fail(f"{path}: seq without items array")
        for i, item in enumerate(items):
            colls += walk(item, f"{path}.items[{i}]")
    elif t == "coll":
        kind = node.get("kind")
        if kind not in RUNTIME_KINDS:
            fail(f"{path}: coll kind {kind!r} is not a runtime stamp kind")
        colls += 1
    elif t == "alt":
        arms = node.get("arms")
        if not isinstance(arms, list):
            fail(f"{path}: alt without arms array")
        for i, arm in enumerate(arms):
            colls += walk(arm, f"{path}.arms[{i}]")
    elif t == "loop":
        if not isinstance(node.get("cont"), bool):
            fail(f"{path}: loop without boolean cont")
        colls += walk(node.get("body"), f"{path}.body")
    elif t == "fn":
        if not isinstance(node.get("name"), str) or not node["name"]:
            fail(f"{path}: fn frame without a name")
        colls += walk(node.get("body"), f"{path}.body")
    # "ret" carries nothing.
    return colls


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_schedule.py <schedule.json>")
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    if doc.get("version") != 1:
        fail(f"unsupported version {doc.get('version')!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        fail("entries must be a non-empty array")
    for i, e in enumerate(entries):
        for key in ("fn", "crate"):
            if not isinstance(e.get(key), str) or not e[key]:
                fail(f"entries[{i}]: missing {key}")
        colls = walk(e.get("schedule"), f"entries[{i}].schedule")
        if colls == 0:
            fail(f"entries[{i}] ({e['fn']}): schedule contains no collective")
        print(
            f"ok: {e['fn']} ({e['crate']}): {colls} collective site(s) "
            f"in the automaton"
        )
    print(f"ok: {len(entries)} entry point(s) validated")


if __name__ == "__main__":
    main()
