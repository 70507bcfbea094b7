#!/usr/bin/env python3
"""Prints a compact digest of every table in results/ for EXPERIMENTS.md,
plus a per-run digest of the telemetry manifests under results/telemetry/."""
import json
import pathlib
import sys


def fmt_us(us):
    if us >= 1_000_000:
        return f"{us / 1e6:.2f} s"
    if us >= 1_000:
        return f"{us / 1e3:.2f} ms"
    return f"{us} us"


def fmt_bytes(b):
    if b >= 1 << 20:
        return f"{b / (1 << 20):.1f} MB"
    if b >= 1 << 10:
        return f"{b / (1 << 10):.1f} KB"
    return f"{b:.0f} B"


def summarize_manifest(path, data):
    meta = data.get("meta", {})
    tag = meta.get("experiment") or meta.get("command") or "?"
    print(f"=== telemetry/{path.stem} :: {tag}")
    # Aggregate spans by name, preserving first-seen order.
    order, agg = [], {}
    for span in data.get("spans", []):
        name = span["name"]
        if name not in agg:
            order.append(name)
            agg[name] = [0, 0]
        agg[name][0] += span["dur_us"]
        agg[name][1] += 1
    for name in order:
        total, count = agg[name]
        suffix = f" ({count} spans)" if count > 1 else ""
        print(f"    span {name:<24} {fmt_us(total):>12}{suffix}")
    counters = data.get("counters", {})
    for name in sorted(counters):
        if name.startswith("engine.kept_level."):
            continue  # per-level census is fig8 material, too long here
        print(f"    counter {name:<28} {counters[name]}")
    gauges = data.get("gauges", {})
    for name in sorted(gauges):
        value = gauges[name]
        shown = fmt_bytes(value) if name.endswith("_bytes") else f"{value:g}"
        print(f"    gauge {name:<30} {shown}")
    for name, h in sorted(data.get("histograms", {}).items()):
        # Empty histograms serialize as just {"count": 0} — no extremes or
        # quantiles to show.
        count = h.get("count", 0)
        if not count:
            print(f"    hist {name:<31} n=0")
            continue
        print(
            f"    hist {name:<31} n={count} mean={h['mean']:.3e} "
            f"p50={h['p50']:.3e} p99={h['p99']:.3e} "
            f"min={h['min']:.3e} max={h['max']:.3e}"
        )
    print()


def summarize_bench_summary(path, data):
    print(f"=== telemetry/{path.stem} :: aggregate run summary")
    for stem, entry in data.get("experiments", {}).items():
        print(
            f"    {stem:<36} {entry['wall_secs']:>8.1f} s   "
            f"peak {fmt_bytes(entry.get('peak_bytes', 0.0))}"
        )
        # Per-method apply seconds carried from the table4 sweep.
        for name in sorted(n for n in entry if n.startswith("method_apply.")):
            print(f"        {name:<38} {entry[name]:.3e} s")
    if "total_secs" in data:
        print(f"    total {data['total_secs']:.1f} s")
    print()


results = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
for path in sorted(results.glob("*.json")):
    data = json.loads(path.read_text())
    print(f"=== {path.stem} :: {data['title']}")
    print("    " + " | ".join(data["headers"]))
    for row in data["rows"]:
        print("    " + " | ".join(row))
    for note in data.get("notes", []):
        print(f"    note: {note}")
    print()

for path in sorted((results / "telemetry").glob("*.json")):
    data = json.loads(path.read_text())
    if path.stem == "bench_summary":
        summarize_bench_summary(path, data)
    elif "qufem_telemetry_version" in data:
        summarize_manifest(path, data)
