#!/usr/bin/env python3
"""glqld service benchmark.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. It builds glqld and the benchmark's
native half (perfbench/glqlbench.ml) with dune, boots the daemon, and
replays a seeded open-loop stream (perfbench/streams.py). With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs the
per-layer traced replay instead (perfbench/trace.ml). The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import streams  # noqa: E402

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")
BUILD = os.path.join(ROOT, "_build", "default")
GLQLD = os.path.join(BUILD, "bin", "glqld.exe")
BENCH = os.path.join(BUILD, "perfbench", "glqlbench.exe")
SETUPS = 5  # set-up is repeated and its median reported
LAG_BOUND_MS = 50.0  # generator lag (p99) beyond which a run is invalid
MEM_CAP = 3 << 30  # bytes of address space per process


def kind(phase):
    """"nominal.3" -> "nominal" (perfbench/stream.ml has the same rule)."""
    return phase.split(".", 1)[0]


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "bin/glqld.ml", "lib/server/server.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a glql checkout: %s is missing" % need)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "bin/glqld.exe", "perfbench/glqlbench.exe"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=850,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        die("build failed")


def limit_memory():
    """Address-space cap for every process the benchmark starts, so a
    runaway request fails alone instead of exhausting a shared machine."""
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP, MEM_CAP))


def bench(*args):
    """Run a glqlbench subcommand in OUT; return its stdout."""
    r = subprocess.run([BENCH] + list(args), cwd=OUT, capture_output=True, timeout=170,
                       preexec_fn=limit_memory)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        die("glqlbench %s failed" % args[0])
    return r.stdout.decode()


# ---------------------------------------------------------------- daemons


class Daemon:
    """glqld (optionally `--router --workers 2`) on a socket in OUT; the
    socket path is relative, so a long checkout path cannot overflow the
    sun_path limit."""

    SOCKET = "d.sock"

    def __init__(self, router):
        self.router = router
        # Router workers snapshot next to their sockets on shutdown and
        # restore at boot; every set-up must start cold.
        for name in os.listdir(OUT):
            if name.startswith(self.SOCKET):
                os.unlink(os.path.join(OUT, name))
        args = [GLQLD, "--socket", self.SOCKET]
        if router:
            args += ["--router", "--workers", "2"]
        self.log = open(os.path.join(OUT, "daemon.log"), "ab")
        self.proc = subprocess.Popen(args, cwd=OUT, stdout=self.log, stderr=self.log,
                                     preexec_fn=limit_memory)

    def sockets(self):
        if not self.router:
            return [self.SOCKET]
        return [self.SOCKET] + ["%s.shard%d" % (self.SOCKET, i) for i in range(2)]

    def pids(self):
        pids = [self.proc.pid]
        try:
            with open("/proc/%d/task/%d/children" % (self.proc.pid, self.proc.pid)) as f:
                pids += [int(p) for p in f.read().split()]
        except OSError:
            pass
        return pids

    def stop(self):
        children = self.pids()[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in children:  # the router reaps its workers; make sure
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.monotonic() + 10
        while any(os.path.exists("/proc/%d" % pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        self.log.close()


def boot_and_setup(router, stream):
    """Boot, LOAD, TRAIN, warm, and pre-fill the latency window; returns
    (daemon, seconds)."""
    t0 = time.perf_counter()
    d = Daemon(router)
    try:
        args = ["setup", "--stream", stream]
        for s in d.sockets():
            args += ["--socket", s]
        bench(*args)
    except BaseException:
        d.stop()
        raise
    return d, time.perf_counter() - t0


# ---------------------------------------------------------------- results


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def load_sent(path):
    """(records by idx, phase summaries) from `glqlbench send` output."""
    recs, summaries = {}, {}
    for row in read_tsv(path):
        if row[0] == "#phase":
            summaries[row[1]] = {
                "lag_p99_ms": float(row[3]) / 1e3,
                "drained": row[5] == "true",
                "rss_mb": float(row[6]),
                "hwm_mb": float(row[7]),
            }
        else:
            recs[int(row[0])] = {"due": float(row[1]), "recv": float(row[3]), "status": row[5], "digest": row[6]}
    return recs, summaries


def pct(xs, p):
    """Nearest-rank percentile (the sender's rule)."""
    if not xs:
        return float("nan")
    s = sorted(xs)
    return s[min(len(s) - 1, int(p / 100.0 * len(s)))]


def check(rows):
    """Read what the sender, the final checks and the oracle wrote; return
    (records, phase summaries, indices of wrong replies). B / F digests
    must equal the replay's, S replies must parse, every status must be
    OK."""
    recs, summaries = load_sent(os.path.join(OUT, "sent.tsv"))
    expected = dict(read_tsv(os.path.join(OUT, "expected.tsv")))
    kept = dict(read_tsv(os.path.join(OUT, "kept.tsv")))
    finals = dict(read_tsv(os.path.join(OUT, "final.tsv")))
    wrong = set()
    for idx, row in enumerate(rows):
        phase, kind, key = row[0], row[5], str(idx)
        if phase == "setup":
            continue
        if phase == "final":
            if key not in finals or finals[key] != expected.get(key):
                wrong.add(idx)
            continue
        rec = recs[idx]
        if rec["status"] != "OK":
            wrong.add(idx)
        elif kind == "B" and rec["digest"] != expected.get(key):
            wrong.add(idx)
        elif kind == "S":
            try:
                if not isinstance(json.loads(kept[key][3:]).get("requests"), int):
                    wrong.add(idx)
            except (KeyError, ValueError):
                wrong.add(idx)
    return recs, summaries, wrong


def run_e2e(w, seed, scale):
    cfg = streams.WORKLOADS[w]
    rows = streams.generate(w, seed, scale)
    stream = os.path.join(OUT, "stream.tsv")
    streams.write(stream, rows)

    setup_times = []
    for i in range(SETUPS):
        d, secs = boot_and_setup(cfg["router"], stream)
        setup_times.append(secs)
        if i < SETUPS - 1:
            d.stop()
    try:
        pids = []
        for pid in d.pids():
            pids += ["--pid", str(pid)]
        bench("send", "--socket", Daemon.SOCKET, "--stream", "stream.tsv", "--out", "sent.tsv",
              "--keep", "kept.tsv", *pids)
        bench("final", "--socket", Daemon.SOCKET, "--stream", "stream.tsv", "--out", "final.tsv")
    finally:
        d.stop()
    bench("oracle", "--stream", "stream.tsv", "--out", "expected.tsv")

    recs, summaries, wrong = check(rows)

    # Requests by phase ("nominal.3") and by kind ("nominal").
    by_phase, by_kind = {}, {}
    for idx, row in enumerate(rows):
        if row[0] not in ("setup", "final"):
            by_phase.setdefault(row[0], []).append((idx, row))
            by_kind.setdefault(kind(row[0]), []).append((idx, row))
    nominal = by_kind["nominal"]

    def lat(idx):
        r = recs[idx]
        return (r["recv"] - r["due"]) / 1e3

    for phase, s in summaries.items():
        if s["lag_p99_ms"] > LAG_BOUND_MS:
            die("generator fell %.1f ms behind its schedule in phase %s: run invalid"
                % (s["lag_p99_ms"], phase), code=3)
    for k, items in by_kind.items():
        lats = [lat(i) for i, _ in items]
        failed = sum(1 for i, _ in items if i in wrong)
        mine = [s for phase, s in summaries.items() if kind(phase) == k]
        print("phase %-8s sent %5d  ok %5d  failed %3d  p50 %8.2f ms  p99 %8.2f ms  "
              "generator lag p99 %.2f ms  drained %s"
              % (k, len(items), len(items) - failed, failed, pct(lats, 50), pct(lats, 99),
                 max(s["lag_p99_ms"] for s in mine), all(s["drained"] for s in mine)))
    nominal_summaries = [s for phase, s in summaries.items() if kind(phase) == "nominal"]
    if not all(s["drained"] for s in nominal_summaries):
        print("warning: the backlog grew at the nominal rate")

    # Capacity: the requests of all bursts over their summed durations
    # (each from its start to its last reply). The bursts are spread
    # through the run, so they sample the speed of a shared machine
    # across it; summing, rather than taking a median over bursts,
    # evens out which heavy requests fell into which burst.
    bursts = [(len(items), max(recs[i]["recv"] for i, _ in items) / 1e6)
              for phase, items in by_phase.items() if kind(phase) == "capacity"]
    max_rate = sum(n for n, _ in bursts) / sum(s for _, s in bursts)
    print("capacity: %d bursts, %s 1/s" % (len(bursts), " ".join("%.0f" % (n / s) for n, s in bursts)))

    # Nominal-rate latencies, summarised per round and reported as the
    # median over rounds, so one slow stretch of a shared machine moves
    # a metric by at most one round's worth.
    windows = [[(lat(i), row[3]) for i, row in items]
               for phase, items in by_phase.items() if kind(phase) == "nominal"]

    def over_windows(p, cls=None):
        return statistics.median(pct([l for l, c in ws if cls is None or c == cls], p) for ws in windows)

    per_cmd = {}
    for i, row in nominal:
        per_cmd.setdefault(row[6].split(" ", 1)[0], []).append(lat(i))
    print("nominal latency by command: " + "  ".join(
        "%s n=%d p50=%.2f p99=%.2f" % (c, len(v), pct(v, 50), pct(v, 99)) for c, v in sorted(per_cmd.items())))
    writes = [lat(i) for i, row in nominal if row[3] == "W"]
    attempted = len(recs) + sum(1 for r in rows if r[0] == "final")
    print("checker: %d of %d replies wrong (error_rate %.6f)" % (len(wrong), attempted, len(wrong) / attempted))
    # Reported, not gated: their spread between runs is too wide (README).
    print("ungated: p99_ms %.3f  light_p99_ms %.3f  write_p99_ms %.3f (%d writes)  rss_mb %.2f  "
          "nominal VmHWM %.2f MB"
          % (over_windows(99), over_windows(99, "L"), pct(writes, 99), len(writes),
             statistics.median(s["rss_mb"] for s in nominal_summaries),
             max(s["hwm_mb"] for s in nominal_summaries)))
    print("setup_s samples: %s" % " ".join("%.3f" % x for x in setup_times))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "p50_ms": (over_windows(50), "ms"),
        "max_rate_rps": (max_rate, "1/s"),
    }
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# The end-to-end metric each per-layer metric is expected to move, and on
# which workload. Names, units and directions are BENCHMARK.json's.
LAYER_TARGETS = {
    "line_buf.feed_us_per_kb": ("max_rate_rps", "routed-light"),
    "protocol.parse_us": ("max_rate_rps", "routed-light"),
    "protocol.encode_us_per_kb": ("p50_ms", "query-mix"),
    "protocol.reply_kb": ("p50_ms", "query-mix"),
    **{
        "server.handle_line_ms." + cmd: ("p50_ms/p99_ms", wl)
        for cmd, wl in [
            ("PING", "routed-light"), ("GRAPHS", "both"), ("MODELS", "routed-light"), ("STATS", "both"),
            ("QUERY", "both"), ("EXPLAIN", "query-mix"), ("WL", "both"), ("KWL", "query-mix"),
            ("HOM", "both"), ("MUTATE", "both"), ("FEATURIZE", "query-mix"), ("PREDICT", "both"),
            ("TRAIN", "query-mix"),
        ]
    },
    "server.self_ms": ("p50_ms", "both"),
    "server.wait_ms": ("light_p99_ms", "query-mix"),
    "server.coalesced_share": ("p50_ms", "query-mix"),
    "cache.plan_ms": ("p99_ms", "query-mix"),
    "cache.plan_hit_ratio": ("p50_ms/p99_ms", "query-mix"),
    "cache.coloring_hit_ratio": ("p50_ms/p99_ms", "query-mix"),
    "cache.feature_hit_ratio": ("p50_ms/p99_ms", "query-mix"),
    "cache.evictions": ("p50_ms/p99_ms", "query-mix"),
    "registry.load_ms": ("setup_s", "both"),
    "registry.mutate_ms": ("write_p99_ms", "query-mix"),
    "gel.direct_ms": ("p99_ms", "query-mix"),
    "gel.layered_ms": ("p50_ms", "query-mix"),
    "wl.refine_ms": ("p99_ms", "query-mix"),
    "wl.incremental_ms": ("p99_ms", "query-mix"),
    "wl.incremental_share": ("p99_ms", "query-mix"),
    "kwl.refine_ms": ("p99_ms", "query-mix"),
    "hom.profile_ms": ("p50_ms", "query-mix"),
    "featurize.build_ms": ("p99_ms", "query-mix"),
    "models.predict_ms": ("p50_ms", "query-mix"),
    "models.train_ms": ("write_p99_ms", "query-mix"),
    "metrics.stats_ms": ("p99_ms/light_p99_ms", "both"),
    "router.forward_us": ("max_rate_rps", "routed-light"),
    "router.merge_ms": ("p99_ms", "routed-light"),
    "trace.overhead_share": ("none (the traced replay's own cost)", "both"),
}


def ask(socket, *lines):
    """Closed-loop requests; the parsed bodies of their OK replies."""
    out = bench("ask", "--socket", socket, *[a for l in lines for a in ("--line", l)])
    return [json.loads(line[3:]) for line in out.splitlines()]


def stats_delta(before, after):
    """Per-layer ratios from the daemon's STATS counters over the replay,
    each with its base."""
    d = {k: after[k] - before[k] for k in after if isinstance(after.get(k), int) and isinstance(before.get(k), int)}

    def ratio(num, *den):
        base = sum(d.get(k, 0) for k in den)
        return (d.get(num, 0) / base if base else 0.0), base

    out = {
        "server.coalesced_share": ratio("batch_coalesced", "requests"),
        "cache.plan_hit_ratio": ratio("plan_hits", "plan_hits", "plan_misses"),
        "cache.coloring_hit_ratio": ratio("coloring_hits", "coloring_hits", "coloring_misses"),
        "cache.feature_hit_ratio": ratio("feature_hits", "feature_hits", "feature_misses"),
        "wl.incremental_share": ratio("incremental_recolors", "incremental_recolors", "incremental_fallbacks"),
    }
    evictions = sum(d.get(k, 0) for k in ("plan_evictions", "coloring_evictions", "feature_evictions"))
    out["cache.evictions"] = (float(evictions), d.get("requests", 0))
    return out


def run_trace(w, seed, scale):
    """The traced run: a shorter replay against the daemon for the STATS
    deltas and waiting times, then the in-process traced replay."""
    cfg = streams.WORKLOADS[w]
    rows = [r for r in streams.generate(w, seed, scale / 2) if kind(r[0]) != "capacity"]
    stream = os.path.join(OUT, "stream.tsv")
    streams.write(stream, rows)
    d, _ = boot_and_setup(cfg["router"], stream)
    try:
        (before,) = ask(Daemon.SOCKET, "STATS")
        pids = [a for pid in d.pids() for a in ("--pid", str(pid))]
        bench("send", "--socket", Daemon.SOCKET, "--stream", "stream.tsv", "--out", "sent.tsv",
              "--keep", "kept.tsv", *pids)
        bench("final", "--socket", Daemon.SOCKET, "--stream", "stream.tsv", "--out", "final.tsv")
        (after,) = ask(Daemon.SOCKET, "STATS")
        members = [ask(s, "STATS")[0] for s in d.sockets()[1:]] or [after, after]
        if cfg["router"]:
            forward_us = forward(Daemon.SOCKET)
    finally:
        d.stop()
    if not cfg["router"]:
        r = Daemon(True)
        try:
            forward_us = forward(Daemon.SOCKET)
        finally:
            r.stop()
    with open(os.path.join(OUT, "members.txt"), "w") as f:
        for m in members:
            f.write("OK " + json.dumps(m, separators=(",", ":")) + "\n")
    bench("oracle", "--stream", "stream.tsv", "--out", "expected.tsv")
    bench("trace", "--stream", "stream.tsv", "--latencies", "sent.tsv", "--member-stats", "members.txt",
          "--spans", "spans.jsonl", "--out", "layers.tsv")

    _, _, wrong = check(rows)
    attempted = sum(1 for r in rows if r[0] != "setup")

    values = {}
    for name, value, note in (r + [""] * (3 - len(r)) for r in read_tsv(os.path.join(OUT, "layers.tsv"))):
        values[name] = (float(value), note)
    for name, (value, base) in stats_delta(before, after).items():
        values[name] = (value, "STATS delta, base %d" % base)
    values["router.forward_us"] = (forward_us, "idle, median of 2000 round trips each way")
    layers = spec()["per_layer"]
    print("%-34s %12s %-6s  %-22s %-14s %s" % ("per-layer metric", "value", "unit", "moves", "on", "note"))
    for m in layers:
        value, note = values[m["name"]]
        target, on = LAYER_TARGETS[m["name"]]
        print("%-34s %12.4f %-6s  %-22s %-14s %s" % (m["name"], value, m["unit"], target, on, note))
    print("checker: %d of %d replies wrong" % (len(wrong), attempted))
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in layers},
    }


def forward(socket):
    return float(bench("forward", "--socket", socket))


def smoke():
    """A short run of each workload in both modes. Asserts that every
    metric BENCHMARK.json names prints with its unit, that the checker
    passed, and that the span file parses."""
    metrics = spec()
    for w in sorted(streams.WORKLOADS):
        for trace, names in ((0, metrics["end_to_end"]), (1, metrics["per_layer"])):
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", "7",
                                "--seconds", "6", "--trace", str(trace)], cwd=ROOT, capture_output=True,
                               text=True, timeout=600)
            if r.returncode != 0:
                sys.stderr.write(r.stderr)
                die("smoke: %s --trace %d exited %d" % (w, trace, r.returncode))
            result = json.loads(r.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (w, trace, "checker failed")
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w, trace, sorted(set(want) ^ set(got)))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace:
                with open(os.path.join(OUT, "spans.jsonl")) as f:
                    spans = [json.loads(line) for line in f]
                assert spans and all(set(s) == {"id", "name", "start_ns", "end_ns", "parent", "req"}
                                     for s in spans), "bad span file"
            print("smoke: %-13s --trace %d ok (%d metrics)" % (w, trace, len(got)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(streams.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="short self-test of every workload, both modes")
    args = ap.parse_args()
    if args.smoke:
        smoke()
        return
    if not args.workload:
        die("--workload is required", code=2)
    build()
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    scale = args.seconds / streams.MEASURED_S
    run = run_trace if args.trace else run_e2e
    result = run(args.workload, args.seed, scale)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
