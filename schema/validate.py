#!/usr/bin/env python3
"""Validate pgr telemetry against the checked-in schema, stdlib-only
(CI runners have no jsonschema package).

Document mode — check a `pgr ... --metrics json` file:

    python3 schema/validate.py schema/metrics.schema.json out.json [command]

Checks the generic pgr-metrics/2 shape (sections, name patterns, integer
fields, histogram quantiles) and, when `command` (train | compress | run
| serve) is given, that every metric name the schema pins for that
command is present — so renaming or dropping a documented metric fails
CI instead of drifting silently.

Drift mode — cross-check the schema against the Rust name registry:

    python3 schema/validate.py --drift schema/metrics.schema.json \
        crates/telemetry/src/names.rs

Parses every `pub const NAME: &str = "...";` out of names.rs and fails
if (a) any constant is absent from the schema's x-metric-names list,
(b) the list carries a stale entry with no constant behind it, (c) the
dynamic-prefix constants (values ending in '.') diverge from
x-dynamic-prefixes, or (d) the serve pinned-histogram list does not
exactly match the `serve.request.<op>.micros` constants — that list is
*generated* from names.rs, never hand-edited.
"""

import json
import re
import sys


def fail(msg):
    print(f"metrics schema violation: {msg}", file=sys.stderr)
    sys.exit(1)


def check_names(section, entries, pattern):
    pat = re.compile(pattern)
    for name in entries:
        if not pat.match(name):
            fail(f"{section} name {name!r} does not match {pattern!r}")


def check_int(section, name, field, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(f"{section}[{name!r}].{field} = {value!r} is not a non-negative integer")


def parse_names_rs(path):
    """All `pub const X: &str = "...";` values in names.rs, split into
    (plain metric names, dynamic-family prefixes ending in '.')."""
    text = open(path).read()
    values = re.findall(r'pub const \w+: &str = "([^"]+)";', text)
    if not values:
        fail(f"{path}: found no `pub const NAME: &str` metric constants")
    names = [v for v in values if not v.endswith(".")]
    prefixes = [v for v in values if v.endswith(".")]
    return names, prefixes


def check_drift(schema_path, names_path):
    schema = json.load(open(schema_path))
    names, prefixes = parse_names_rs(names_path)
    listed = schema["x-metric-names"]["names"]
    listed_prefixes = schema["x-dynamic-prefixes"]["prefixes"]

    missing = sorted(set(names) - set(listed))
    if missing:
        fail(
            f"names.rs constants absent from x-metric-names: {missing} "
            f"(add them to {schema_path})"
        )
    stale = sorted(set(listed) - set(names))
    if stale:
        fail(
            f"x-metric-names entries with no constant in names.rs: {stale} "
            f"(remove them from {schema_path})"
        )
    if set(prefixes) != set(listed_prefixes):
        fail(
            f"dynamic prefixes diverge: names.rs has {sorted(prefixes)}, "
            f"schema has {sorted(listed_prefixes)}"
        )

    # The serve pinned-histogram list is generated from names.rs: the
    # `serve.request.<op>.micros` constants, exactly.
    generated = sorted(
        n for n in names if n.startswith("serve.request.") and n.endswith(".micros")
    )
    pinned = sorted(schema["x-required-keys"]["serve"].get("histograms", []))
    if generated != pinned:
        fail(
            f"serve pinned histograms diverge from names.rs: "
            f"generated {generated}, schema pins {pinned}"
        )

    # Internal consistency: anything pinned for a command must be a known
    # name (or belong to a dynamic family).
    known = set(listed)
    for command, pins in schema["x-required-keys"].items():
        if not isinstance(pins, dict):
            continue
        for section, keys in pins.items():
            if not isinstance(keys, list):
                continue
            for key in keys:
                if key in known:
                    continue
                if any(key.startswith(p) for p in listed_prefixes):
                    continue
                if section == "spans":
                    # Span paths are hierarchical (`train.ingest`); their
                    # roots live in names.rs but nested paths need not.
                    continue
                fail(f"x-required-keys[{command!r}] pins unknown {section} {key!r}")

    print(
        f"{schema_path}: x-metric-names in sync with {names_path} "
        f"({len(names)} names, {len(prefixes)} dynamic prefixes, "
        f"{len(generated)} generated serve histograms)"
    )


def check_document(schema_path, doc_path, command):
    schema = json.load(open(schema_path))
    doc = json.load(open(doc_path))

    if not isinstance(doc, dict):
        fail("root is not an object")
    expected_tag = schema["properties"]["schema"]["const"]
    if doc.get("schema") != expected_tag:
        fail(f"schema tag {doc.get('schema')!r} != {expected_tag!r}")
    sections = ("counters", "gauges", "histograms", "spans")
    extra = set(doc) - set(sections) - {"schema"}
    if extra:
        fail(f"unexpected top-level keys {sorted(extra)}")
    for section in sections:
        if not isinstance(doc.get(section), dict):
            fail(f"missing {section!r} object")
        pattern = schema["properties"][section]["propertyNames"]["pattern"]
        check_names(section, doc[section], pattern)

    for section in ("counters", "gauges"):
        for name, value in doc[section].items():
            check_int(section, name, "value", value)
    for section, fields in (
        ("histograms", schema["definitions"]["hist"]["required"]),
        ("spans", schema["definitions"]["span"]["required"]),
    ):
        for name, entry in doc[section].items():
            if not isinstance(entry, dict) or set(entry) != set(fields):
                fail(f"{section}[{name!r}] must have exactly fields {fields}")
            for field in fields:
                check_int(section, name, field, entry[field])
    for name, entry in doc["histograms"].items():
        if not entry["min"] <= entry["p50"] <= entry["p90"] <= entry["p99"]:
            fail(f"histograms[{name!r}] quantiles are not monotone: {entry}")
        if entry["count"] and not entry["p99"] <= entry["max"]:
            fail(f"histograms[{name!r}] p99 exceeds max: {entry}")

    if command:
        pinned = schema["x-required-keys"].get(command)
        if pinned is None:
            fail(f"unknown command {command!r} in x-required-keys")
        for section in sections:
            missing = [k for k in pinned.get(section, []) if k not in doc[section]]
            if missing:
                fail(f"{command} output lacks pinned {section}: {missing}")

    print(f"{doc_path}: valid {expected_tag} document"
          + (f" with all pinned {command} keys" if command else ""))


def main():
    args = sys.argv[1:]
    if args and args[0] == "--drift":
        if len(args) != 3:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_drift(args[1], args[2])
        return
    if len(args) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_document(args[0], args[1], args[2] if len(args) == 3 else None)


if __name__ == "__main__":
    main()
