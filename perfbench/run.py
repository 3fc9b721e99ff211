#!/usr/bin/env python3
"""CATOCS benchmark runner.

Builds perfbench/catocs_bench.exe from the checkout with dune, runs one
workload in fresh processes for about --seconds seconds, checks every
delivery log, and prints each metric by name with its unit. The last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bss-mesh-n64 --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1
reports the per-layer metrics of the traced run (see README.md).
"""

import argparse
import json
import math
import os
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "catocs_bench.exe")

WORKLOADS = ["bss-mesh-n64", "pc-tree-n256-encoded", "abcast-lossy-n32"]

# --trace 0 runs this many inputs, derived from --seed, at least once each
# and the first of them twice, whatever --seconds
SUB_SEEDS = 8
# one child process may not take longer than this
CHILD_TIMEOUT_S = 150

# The host's speed drifts by tens of percent within seconds and over
# minutes, which no median over a run removes. Each untraced process
# therefore also times a fixed reference loop in slices spread over its
# run (see reference_slice in catocs_bench.ml), and the host-time metrics
# of that process are scaled to a host on which those slices take REF_S
# seconds, wall or CPU. See README.md, "Noise".
REF_S = 0.14

END_TO_END = [
    ("deliveries_per_wall_s", "1/s"),
    ("deliveries_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("alloc_words_per_delivery", "words"),
    ("peak_heap_mb", "MB"),
    ("wire_bytes_per_delivery", "B"),
    ("delivery_latency_p50_ms", "sim_ms"),
    ("delivery_latency_p999_ms", "sim_ms"),
    ("peak_unstable_kb", "kB"),
    ("correct_delivery_share", "ratio"),
]

PER_LAYER = [
    ("engine.events_per_delivery", "count"),
    ("engine.recv_self_ns_per_delivery", "ns"),
    ("engine.cpu_per_wall", "ratio"),
    ("net.drops_per_delivery", "count"),
    ("transport.packets_per_delivery", "count"),
    ("transport.link_sends_per_delivery", "count"),
    ("transport.coalesce_ratio", "ratio"),
    ("wire_codec.frames_per_delivery", "count"),
    ("wire_codec.bytes_per_frame", "B"),
    ("wire_codec.encode_ns_per_frame", "ns"),
    ("wire_codec.decode_ns_per_frame", "ns"),
    ("wire_codec.alloc_words_per_frame", "words"),
    ("stack.multicast_self_ns", "ns"),
    ("stack.multicast_alloc_words", "words"),
    ("stack.setup_us_per_member", "us"),
    ("stack.retained_words_per_message", "words"),
    ("pc_causal.forward_copies_per_delivery", "count"),
    ("delivery_queue.depth_mean", "msgs"),
    ("delivery_queue.depth_peak", "msgs"),
    ("delivery_queue.blocked_mean", "msgs"),
    ("delivery_queue.add_take_ns", "ns"),
    ("delivery_queue.ordering_wait_p99_ms", "sim_ms"),
    ("stability.gossip_msgs_per_delivery", "count"),
    ("stability.minima_advances_per_delivery", "count"),
    ("stability.observe_ns", "ns"),
    ("stability.note_delivered_ns", "ns"),
    ("stability.lag_p99_ms", "sim_ms"),
    ("total_order.pending_mean", "msgs"),
    ("registry.traced_overhead_pct", "%"),
    ("budget.engine_event_ns", "ns"),
    ("budget.predicted_recv_ns_per_delivery", "ns"),
    ("budget.remainder_pct", "%"),
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib", "catocs"))):
        fail("no repository source next to perfbench/; nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/catocs_bench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def exe(args, what):
    """One fresh process of catocs_bench.exe; returns its JSON record."""
    proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s exited with %d" % (what, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % what)
    return json.loads(lines[-1])


def child(workload, seed, mode, domains=None):
    """One simulation in a fresh process."""
    args = ["--workload", workload, "--seed", str(seed), "--mode", mode]
    if domains is not None:
        args += ["--domains", str(domains)]
    return exe(args, "%s run of %s" % (mode, workload))


def repeat(seconds, run_once, min_reps):
    """Run until [seconds] have passed and at least [min_reps] ran;
    [run_once] gets the number of the repetition."""
    start = time.monotonic()
    reps = []
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        reps.append(run_once(len(reps)))
    return reps


def check_fingerprints(records, what):
    prints = {r["fingerprint"] for r in records}
    if len(prints) != 1:
        fail("delivery-log fingerprints differ across %s: %s"
             % (what, ", ".join(sorted(prints))))
    return prints.pop()


def sub_seed(seed, j):
    return seed * 1000 + j


def pooled_percentile(reps, q):
    """Nearest-rank percentile over the latency samples of all [reps]."""
    counts = {}
    for r in reps:
        for value, count in r["lat_hist"]:
            counts[value] = counts.get(value, 0) + count
    total = sum(counts.values())
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise ValueError("no latency samples")


def end_to_end(workload, seed, seconds):
    # The repetitions cycle through SUB_SEEDS inputs derived from the seed.
    # The exact figures are pooled over one run of each input; the host-time
    # figures are medians over every repetition, each scaled by the time
    # its own process took for the reference slices: wall rates and setup
    # by their wall time, CPU rates by their CPU time.
    def run_once(i):
        return child(workload, sub_seed(seed, i % SUB_SEEDS), "untraced")

    reps = repeat(seconds, run_once, SUB_SEEDS + 1)
    fingerprint = ".".join(
        check_fingerprints(reps[j::SUB_SEEDS], "repetitions of one seed")
        for j in range(SUB_SEEDS))

    # per process; > 1 when the host ran slower than the nominal host
    slows = [r["reference_s"] / REF_S for r in reps]
    cpu_slows = [r["reference_cpu_s"] / REF_S for r in reps]
    raw = {
        "deliveries_per_wall_s":
            [r["deliveries"] / r["run_wall_s"] for r in reps],
        "deliveries_per_cpu_s":
            [r["deliveries"] / r["run_cpu_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }
    metrics = {
        "deliveries_per_wall_s": median(
            x * s for x, s in zip(raw["deliveries_per_wall_s"], slows)),
        "deliveries_per_cpu_s": median(
            x * s for x, s in zip(raw["deliveries_per_cpu_s"], cpu_slows)),
        "setup_s": median(x / s for x, s in zip(raw["setup_s"], slows)),
    }
    inputs = reps[:SUB_SEEDS]
    deliveries = sum(r["deliveries"] for r in inputs)
    metrics.update({
        "alloc_words_per_delivery":
            sum(r["alloc_words"] for r in inputs) / deliveries,
        "peak_heap_mb":
            median([r["top_heap_words"] * 8 / 1e6 for r in inputs]),
        "wire_bytes_per_delivery":
            sum(r["wire_bytes"] for r in inputs) / deliveries,
        "delivery_latency_p50_ms": pooled_percentile(inputs, 0.5) / 1e3,
        "delivery_latency_p999_ms": pooled_percentile(inputs, 0.999) / 1e3,
        "peak_unstable_kb":
            median([r["peak_unstable_bytes"] / 1e3 for r in inputs]),
    })
    attempted = sum(r["expected"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics["correct_delivery_share"] = 1 - failed / attempted
    notes = {name: "(median of %d processes; %.6g unscaled; host %.3fx the "
             "nominal)" % (len(reps), median(values), median(slows))
             for name, values in raw.items()}
    lat_count = sum(r["lat_count"] for r in inputs)
    notes["delivery_latency_p999_ms"] = (
        "(%d samples over %d seeds, %d beyond)"
        % (lat_count, SUB_SEEDS, lat_count // 1000))
    print("fingerprint %s %s" % (workload, fingerprint))
    return metrics, attempted, failed, notes, END_TO_END


def per_layer(workload, seed, seconds):
    # the first input of --trace 0, so the fingerprints can be compared
    seed = sub_seed(seed, 0)
    start = time.monotonic()
    # untraced, with the Endpoint built by Stack.create, on the workload's
    # engine: the engine's CPU/wall ratio and the retained words
    stack = child(workload, seed, "stack")

    def pair(_):
        traced = child(workload, seed, "traced")
        # the same simulation untraced on the traced run's engine: the
        # baseline of the tracing overhead (and, on a parallel workload,
        # the 1-domain side of the domain-count pair)
        base = child(workload, seed, "stack", traced["domains"])
        return traced, base

    pairs = repeat(seconds - (time.monotonic() - start), pair, 1)
    traced = [t for t, _ in pairs]
    base = [b for _, b in pairs]
    checked = [stack] + traced + base
    fingerprint = check_fingerprints(
        checked, "untraced/traced runs, endpoints and domain counts")
    metrics = {}
    for name, _ in PER_LAYER:
        if name in traced[0]:
            metrics[name] = median([r[name] for r in traced])
    metrics["engine.cpu_per_wall"] = stack["run_cpu_s"] / stack["run_wall_s"]
    metrics["stack.retained_words_per_message"] = (
        stack["retained_words"] / stack["multicasts"])

    def cpu_rate(runs):
        return median([r["deliveries"] / r["run_cpu_s"] for r in runs])

    metrics["registry.traced_overhead_pct"] = (
        100 * (1 - cpu_rate(traced) / cpu_rate(base)))
    attempted = sum(r["expected"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    print("fingerprint %s %s (untraced stack-built endpoint d=%d; traced "
          "benchmark-built endpoint and untraced stack-built d=%d; %d pairs)"
          % (workload, fingerprint, stack["domains"], traced[0]["domains"],
             len(pairs)))
    return metrics, attempted, failed, {}, PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    build()
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, notes, catalog = measure(
        args.workload, args.seed, args.seconds)
    out = {}
    for name, unit in catalog:
        value = metrics[name]
        print("%-40s %16.6g %-6s %s" % (name, value, unit, notes.get(name, "")))
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
