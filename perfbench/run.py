#!/usr/bin/env python3
"""The ipcp benchmark: one command for every workload, run from the
repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --sweep [--seed N] [--point-budget-s S]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

A run builds `ipcp` and the in-process helper `perfbench/layers.exe` from
source with dune, makes its inputs from the seed, measures the workload for
the given number of seconds, checks every output, prints a report and, as
its last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, taken from the built `ipcp` executable run with
default flags; with `--trace 1` they are the per-layer metrics of a
separate traced in-process pass.  `--out` appends the full run record
(every reported figure, with sample counts) to FILE as one JSON line;
`--compare` reads two such files.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time

IPCP = "_build/default/bin/ipcp.exe"
LAYERS = "_build/default/perfbench/layers.exe"
GOLDEN = "test/goldens/tables_const.txt"
SPEC = "BENCHMARK.json"

SETUP_BURST = 8
SMALL_PROCS = 200
LARGE_PROCS = 1600
SMALL_PER_LARGE = 3
MIN_LARGE_RUNS = 2
SERVE_PROCS = 100
VERSIONS = 16
WRITE_FRAC = 0.05
OUTSTANDING = 2
SERVER_INSTANCES = 8
JUMP_FUNCTIONS = ["literal", "intraconst", "passthrough", "polynomial"]
REPLY_TIMEOUT_S = 60
MAX_BOUND = 0.25  # the widest bound BENCHMARK.json may give
SWEEP_SIZES = [100, 200, 400, 800, 1600, 3200, 6400, 10000]
SWEEP_LAYERS = [
    "frontend.lex_ms", "frontend.parse_ms", "frontend.sema_ms", "prepare.ms",
    "stage1.ms", "stage2.ms", "jump_function.build_ir_us_p50", "ir.lower_ms",
    "ir.dom_ms", "ir.ssa_ms", "ir.ssa_value_ms", "ir.expr_id_ceiling_ms",
    "solver.ms", "substitute.ms", "render.ms",
]

# Figures reported besides the end-to-end metrics: the named figures of
# each workload, kept in the run record for --compare.
EXTRA_BETTER = {
    "tables_ms": "lower", "analyze_s": "lower", "scaling_exponent": "lower",
    "constants_found": "higher", "throughput_rps": "higher",
    "delta_p50_ms": "lower", "latency_p90_ms": "lower", "latency_p99_ms": "lower",
    "fail_frac": "lower",
}
LAYER_EXTRAS = {
    "complete.ms": "ms", "incr.update_ms": "ms", "serve.overhead_ms": "ms",
    "serve.delta_p50_ms": "ms", "router.overhead_ms": "ms", "certify.ms": "ms",
}


class BenchError(Exception):
    pass


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------- statistics ----------------

def pct(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[min(len(s), rank) - 1]


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def slope(points):
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    den = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / den if den else None


# ---------------- the run context ----------------

class Run:
    def __init__(self, seed, seconds, trace):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join("perfbench", "_work", str(os.getpid()))
        self.env = dict(os.environ)
        # route's shard sockets live under TMPDIR: a short path inside
        # the checkout, relative so it stays under the socket-path limit
        self.env["TMPDIR"] = os.path.join(self.work, "tmp")
        self.attempted = 0
        self.failed = 0
        self.servers = []  # every server process started, for the final clean-up
        self.figures = {}  # name -> (value, unit, samples)
        self.errlog = os.path.join(self.work, "stderr.log")

    def clean(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run is using it

    def rng(self, label):
        return random.Random(f"{label}:{self.seed}")

    def subseed(self, label):
        return self.rng(label).randrange(1, 1 << 30)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: check failed: {what}", file=sys.stderr)

    def put(self, name, value, unit, samples):
        self.figures[name] = (value, unit, samples)

    def layers(self, *args, timeout=170):
        r = subprocess.run([LAYERS, *args], capture_output=True, text=True,
                           env=self.env, timeout=timeout)
        if r.returncode != 0:
            raise BenchError(f"layers {args[0]} exited {r.returncode}: "
                             f"{r.stderr.strip()[-2000:]}")
        if r.stderr:
            sys.stderr.write(r.stderr)
        out = {}
        for line in r.stdout.splitlines():
            k, _, v = line.partition("\t")
            try:
                out[k] = float(v)
            except ValueError:
                pass
        return out

    def spawn_wait(self, argv):
        """Run argv to completion; wall seconds, stdout, exit code, peak RSS (MB)."""
        with open(self.errlog, "ab") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                 env=self.env)
            out = p.stdout.read()
            p.stdout.close()
            _, status, ru = os.wait4(p.pid, 0)
            dt = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return dt, out, p.returncode, ru.ru_maxrss / 1024.0


def build():
    for path in ("dune-project", "bin/ipcp.ml", "lib", GOLDEN, "perfbench/layers.ml",
                 SPEC):
        if not os.path.exists(path):
            fail(f"run this from the root of an ipcp checkout: {path} is missing")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(dune + ["build", "--root", ".", "./bin/ipcp.exe",
                               "./perfbench/layers.exe"],
                       capture_output=True, text=True, env=env, timeout=870)
    if r.returncode != 0:
        fail(f"build failed:\n{(r.stdout + r.stderr)[-4000:]}")


# ---------------- set-up time ----------------

class CliSetup:
    """Set-up time of the CLI workloads: the time until `ipcp --version` has
    returned.  Samples are taken in bursts spread over the run, so that the
    median does not hang on the machine's state at one moment."""

    def __init__(self, run):
        self.run = run
        self.times = []

    def burst(self, k):
        for _ in range(k):
            dt, out, code, _ = self.run.spawn_wait([IPCP, "--version"])
            self.run.check(code == 0 and out.strip() != b"", "ipcp --version")
            self.times.append(dt)

    def report(self):
        self.run.put("setup_s", median(self.times), "s", len(self.times))


def setup_server(run, argv, reps):
    """Times from spawning a server until its first ping is answered."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        srv = Server(run, argv)
        srv.send({"id": "ping", "op": "ping"})
        frame = json.loads(srv.readline())
        times.append(time.perf_counter() - t0)
        run.check(frame.get("status") == "ok", f"{argv[1]} ping")
        srv.close()
    return times


# ---------------- suite_tables ----------------

def wl_suite_tables(run):
    if run.trace:
        m = run.layers("trace-tables", GOLDEN)
        run.check(m.get("check.failures", 1) == 0, "in-process tables differ from the golden")
        return m
    with open(GOLDEN, "rb") as f:
        golden = f.read()
    setup = CliSetup(run)
    setup.burst(SETUP_BURST)
    _, out, code, _ = run.spawn_wait([IPCP, "tables"])  # warm-up
    run.check(code == 0 and out == golden, "ipcp tables output differs from the golden")
    lat, rss = [], 0.0
    t_start = time.perf_counter()
    while not lat or time.perf_counter() - t_start < run.seconds:
        setup.burst(1)
        dt, out, code, mb = run.spawn_wait([IPCP, "tables"])
        run.check(code == 0 and out == golden, "ipcp tables output differs from the golden")
        lat.append(dt * 1e3)
        rss = max(rss, mb)
    setup.report()
    n = len(lat)
    run.put("latency_p50_ms", median(lat), "ms", n)
    run.put("latency_p90_ms", pct(lat, 90), "ms", n)
    # at the median run time, like gen_analyze: a mean would let the few
    # runs slowed by a busy machine move it
    run.put("throughput_per_s", 1e3 / median(lat), "1/s", n)
    run.put("peak_rss_mb", rss, "MB", n)
    run.put("tables_ms", median(lat), "ms", n)
    return None


# ---------------- gen_analyze ----------------

def constants_in(out):
    """Number of CONSTANTS facts in an analyze report."""
    n, inside = 0, False
    for line in out.decode().splitlines():
        if line.startswith("---"):
            inside = line == "--- CONSTANTS sets"
        elif inside:
            n += line.count("=")
    return n


def wl_gen_analyze(run):
    small = os.path.join(run.work, "small.f")
    large = os.path.join(run.work, "large.f")
    run.layers("gen", str(SMALL_PROCS), str(run.subseed("small")), small)
    run.layers("gen", str(LARGE_PROCS), str(run.subseed("large")), large)
    if run.trace:
        m = run.layers("trace-analyze", small, large)
        run.check(m.get("driver.constants_found", 0) > 0, "traced analyze found no constants")
        return m
    setup = CliSetup(run)
    setup.burst(SETUP_BURST)
    # the benchmark's oracle, outside the timed region
    _, out, code, _ = run.spawn_wait([IPCP, "certify", large])
    run.check(code == 0 and b": certified (" in out, "the large program does not certify")
    outs = {small: set(), large: set()}
    times = {small: [], large: []}
    rss = 0.0
    t_start = time.perf_counter()
    last = 0.0
    while (len(times[large]) < MIN_LARGE_RUNS
           or time.perf_counter() - t_start + last <= run.seconds):
        t_iter = time.perf_counter()
        for path in [small] * SMALL_PER_LARGE + [large]:
            setup.burst(SETUP_BURST // 2)
            dt, out, code, mb = run.spawn_wait([IPCP, "analyze", path])
            run.check(code == 0, f"ipcp analyze {path} exited {code}")
            outs[path].add(out)
            times[path].append(dt)
            rss = max(rss, mb)
        last = time.perf_counter() - t_iter
    for path in (small, large):
        run.check(len(outs[path]) == 1, f"ipcp analyze {path} output differs between repetitions")
    lat = [t * 1e3 for t in times[large]]
    n = len(lat)
    t_large, t_small = median(times[large]), median(times[small])
    setup.report()
    run.put("latency_p50_ms", median(lat), "ms", n)
    run.put("latency_p90_ms", pct(lat, 90), "ms", n)
    run.put("throughput_per_s", LARGE_PROCS / t_large, "1/s", n)
    run.put("peak_rss_mb", rss, "MB", n + len(times[small]))
    run.put("analyze_s", t_large, "s", n)
    run.put("scaling_exponent",
            math.log(t_large / t_small) / math.log(LARGE_PROCS / SMALL_PROCS), "1",
            min(n, len(times[small])))
    run.put("constants_found", constants_in(next(iter(outs[large]))), "count", n)
    return None


# ---------------- serve_mixed / route_mixed ----------------

class Server:
    """An `ipcp serve` or `ipcp route` process driven over its stdio."""

    def __init__(self, run, argv):
        self.run = run
        self.err = open(run.errlog, "ab")
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=self.err,
                                  env=run.env, bufsize=0)
        run.servers.append(self.p)
        self.fd = self.p.stdout.fileno()
        self.buf = b""

    def send(self, obj):
        self.p.stdin.write((json.dumps(obj, separators=(",", ":")) + "\n").encode())

    def readline(self):
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                line, self.buf = self.buf[:i], self.buf[i + 1:]
                return line
            ready, _, _ = select.select([self.fd], [], [], REPLY_TIMEOUT_S)
            if not ready:
                self.kill()
                raise BenchError("server did not answer in time")
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                self.kill()
                raise BenchError("server closed its output early")
            self.buf += chunk

    def kill(self):
        self.p.kill()
        self.p.wait()
        self.err.close()

    def close(self):
        """Close the input, let the server drain, and return its peak RSS (MB)."""
        self.p.stdin.close()
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while True:
            ready, _, _ = select.select([self.fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                self.kill()
                raise BenchError("server did not exit after end of input")
            if not os.read(self.fd, 1 << 16):
                break
        self.p.stdout.close()
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.err.close()
        self.run.check(self.p.returncode == 0, f"server exited {self.p.returncode}")
        return ru.ru_maxrss / 1024.0


def walk(n, offset, k):
    """Session ping-pong over versions 0..n (mirrors layers.ml)."""
    p = (offset + k) % (2 * n)
    return p if p <= n else 2 * n - p


class Mix:
    """The seeded request stream: reads over the suite, writes advancing two sessions."""

    def __init__(self, run, suite):
        self.run = run
        self.reads = []
        for prog in suite:
            for jf in JUMP_FUNCTIONS:
                for no_mod in (0, 1):
                    for no_ret in (0, 1):
                        self.reads.append((f"{prog}.{jf}.{no_mod}{no_ret}", prog, jf,
                                           no_mod, no_ret))
        self.vdir = run.work
        run.layers("edits", str(SERVE_PROCS), str(run.subseed("edits")), str(VERSIONS),
                   self.vdir)
        plan = os.path.join(run.work, "plan.tsv")
        with open(plan, "w") as f:
            for key, prog, jf, no_mod, no_ret in self.reads:
                f.write(f"{key}\tsuite\t{prog}\t{jf}\t{no_mod}\t{no_ret}\n")
            for k in range(VERSIONS + 1):
                f.write(f"v{k}\tfile\t{self.version(k)}\tpassthrough\t0\t0\n")
        self.plan = plan
        self.refdir = os.path.join(run.work, "refs")
        os.makedirs(self.refdir)
        run.layers("refs", plan, self.refdir)
        self.refs = {}

    def version(self, k):
        return os.path.join(self.vdir, f"v{k}.f")

    def ref(self, key):
        if key not in self.refs:
            with open(os.path.join(self.refdir, key + ".out"), encoding="utf-8") as f:
                self.refs[key] = f.read()
        return self.refs[key]

    def read_req(self, rid, read):
        key, prog, jf, no_mod, no_ret = read
        return ({"id": rid, "op": "analyze", "suite": prog, "jf": jf,
                 "no_mod": bool(no_mod), "no_return_jfs": bool(no_ret)}, "read", key)

    def write_req(self, rid, session, k):
        return ({"id": rid, "op": "analyze-delta", "file": self.version(k),
                 "session": f"s{session}"}, "write", f"v{k}")

    def warmup(self):
        order = list(self.reads)
        self.run.rng("warmup").shuffle(order)
        reqs = [self.write_req(f"start{s}", s, walk(VERSIONS, s * VERSIONS, 0)) for s in (0, 1)]
        reqs += [self.read_req(f"warm{i}", r) for i, r in enumerate(order)]
        return iter(reqs)

    def stream(self, part):
        rng = self.run.rng(f"stream{part}")
        steps, session, i = [0, 0], 0, 0
        while True:
            i += 1
            if rng.random() < WRITE_FRAC:
                steps[session] += 1
                yield self.write_req(f"w{i}", session,
                                     walk(VERSIONS, session * VERSIONS, steps[session]))
                session ^= 1
            else:
                yield self.read_req(f"r{i}", rng.choice(self.reads))


def replay(run, srv, mix, reqs, seconds):
    """Closed loop with OUTSTANDING requests in flight; per-request (class, key, ms)."""
    inflight, samples = {}, []
    t_start = time.perf_counter()
    deadline = None if seconds is None else t_start + seconds
    t_last = t_start

    def send_next():
        nxt = next(reqs, None)
        if nxt is not None:
            obj, cls, key = nxt
            inflight[obj["id"]] = (time.perf_counter(), cls, key)
            srv.send(obj)

    for _ in range(OUTSTANDING):
        send_next()
    while inflight:
        line = srv.readline()
        t_last = time.perf_counter()
        frame = json.loads(line)
        if frame.get("id") not in inflight:
            raise BenchError(f"unexpected frame: {line[:200]!r}")
        t0, cls, key = inflight.pop(frame["id"])
        run.check(frame.get("status") == "ok" and frame.get("code") == 0
                  and frame.get("stdout") == mix.ref(key),
                  f"{cls} {frame['id']} ({key}): status {frame.get('status')}, "
                  f"stdout differs from the in-process rendering")
        samples.append((cls, key, (t_last - t0) * 1e3))
        if deadline is None or t_last < deadline:
            send_next()
    return samples, t_last - t_start


def serve_phase(run, mix, argv, seconds, setup=None):
    """Replay the mix for `seconds` through SERVER_INSTANCES servers in turn,
    each warmed up first; per-process effects such as memory layout then
    average out within a run.  Counters are summed over the instances'
    final health snapshots; set-up samples are taken between instances."""
    samples, wall, counters, rss = [], 0.0, {"bench.reads": 0}, 0.0
    for i in range(SERVER_INSTANCES):
        if setup is not None:
            setup += setup_server(run, argv, SETUP_BURST // 2)
        srv = Server(run, argv)
        srv.send({"id": "ping", "op": "ping"})
        run.check(json.loads(srv.readline()).get("status") == "ok", "ping")
        warm, _ = replay(run, srv, mix, mix.warmup(), None)
        part, dt = replay(run, srv, mix, mix.stream(i), seconds / SERVER_INSTANCES)
        srv.send({"id": "health", "op": "health"})
        health = json.loads(srv.readline()).get("health", {})
        for k, v in health.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        counters["bench.reads"] += sum(1 for cls, _, _ in warm + part if cls == "read")
        rss = max(rss, srv.close())
        samples += part
        wall += dt
    if setup is not None:
        setup += setup_server(run, argv, SETUP_BURST // 2)
    return samples, wall, counters, rss


def wl_mixed(run, argv):
    suite = subprocess.run([LAYERS, "suite"], capture_output=True, text=True,
                           check=True).stdout.split()
    mix = Mix(run, suite)
    if run.trace:
        return trace_mixed(run, mix, argv)
    setup = []
    samples, wall, counters, rss = serve_phase(run, mix, argv, run.seconds, setup)
    run.put("setup_s", median(setup), "s", len(setup))
    lat = [ms for _, _, ms in samples]
    reads = [ms for cls, _, ms in samples if cls == "read"]
    writes = [ms for cls, _, ms in samples if cls == "write"]
    # latency is that of the reads: a read queued behind a write waits
    # for it, so about a tenth of all requests are slow and a p90 over
    # every request would sit on that cliff; writes show in throughput
    # and in delta_p50_ms
    run.put("latency_p50_ms", median(reads), "ms", len(reads))
    run.put("latency_p90_ms", pct(reads, 90), "ms", len(reads))
    run.put("latency_p99_ms", pct(lat, 99), "ms", len(lat))
    run.put("throughput_per_s", len(lat) / wall, "1/s", len(lat))
    run.put("peak_rss_mb", rss, "MB", SERVER_INSTANCES)
    run.put("throughput_rps", len(lat) / wall, "1/s", len(lat))
    if writes:
        run.put("delta_p50_ms", median(writes), "ms", len(writes))
    return None


def trace_mixed(run, mix, argv):
    m = run.layers("trace-serve", mix.plan, mix.vdir, str(VERSIONS))
    phase = max(2, run.seconds // 2)
    serve_samples, _, serve_counters, _ = serve_phase(run, mix, [IPCP, "serve"], phase)
    serve_reads = [(key, ms) for cls, key, ms in serve_samples if cls == "read"]
    inproc = median([m["inproc.read." + key] for key, _ in serve_reads])
    m["serve.overhead_ms"] = median([ms for _, ms in serve_reads]) - inproc
    writes = [ms for cls, _, ms in serve_samples if cls == "write"]
    counters = serve_counters
    if argv[1] == "route":
        route_samples, _, counters, _ = serve_phase(run, mix, argv, phase)
        m["router.overhead_ms"] = (median([ms for _, _, ms in route_samples])
                                   - median([ms for _, _, ms in serve_samples]))
        m["router.rerouted"] = counters.get("router.rerouted", 0)
        m["router.hedged"] = counters.get("router.hedged", 0)
        writes = [ms for cls, _, ms in route_samples if cls == "write"]
    m["serve.prepare_memo_hit_ratio"] = (counters.get("serve.prepare_memo_hits", 0)
                                         / counters["bench.reads"])
    m["serve.delta_p50_ms"] = median(writes) if writes else 0.0
    return m


# ---------------- one run ----------------

WORKLOADS = {
    "suite_tables": wl_suite_tables,
    "gen_analyze": wl_gen_analyze,
    "serve_mixed": lambda run: wl_mixed(run, [IPCP, "serve"]),
    "route_mixed": lambda run: wl_mixed(run, [IPCP, "route", "--shards", "2"]),
}


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def main_run(args):
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    build()
    spec = load_spec()
    run = Run(args.seed, args.seconds, args.trace)
    os.makedirs(run.env["TMPDIR"])
    try:
        layer_metrics = WORKLOADS[args.workload](run)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        if os.path.exists(run.errlog):
            with open(run.errlog, errors="replace") as f:
                sys.stderr.write(f.read()[-4000:])
        fail(f"{args.workload}: {e}")
    finally:
        for p in run.servers:
            if p.poll() is None:
                p.kill()
                p.wait()
        run.clean()
    if run.trace:
        declared = spec["per_layer"]
        metrics = {d["name"]: {"value": float(layer_metrics.get(d["name"], 0.0)),
                               "unit": d["unit"]} for d in declared}
        # the layers only some workloads load (complete, incr, serve,
        # router, certify) are figures of those workloads alone: declared,
        # they would read a constant 0 on the others
        extra = {k: {"value": v, "unit": LAYER_EXTRAS[k], "n": 1}
                 for k, v in layer_metrics.items() if k in LAYER_EXTRAS}
    else:
        declared = spec["end_to_end"]
        metrics = {d["name"]: {"value": run.figures[d["name"]][0], "unit": d["unit"]}
                   for d in declared}
        run.put("fail_frac", run.failed / max(1, run.attempted), "1", run.attempted)
        extra = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in run.figures.items()}
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {run.attempted}  failed {run.failed}")
    if run.trace:
        for name, m in list(metrics.items()) + list(extra.items()):
            print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    else:
        for name, (v, unit, n) in sorted(run.figures.items()):
            print(f"#   {name:20s} {v:.6g} {unit}  (n={n})")
    result = {"correct": run.failed == 0, "attempted": max(1, run.attempted),
              "failed": run.failed, "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      extra=extra)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    sys.exit(0 if run.failed == 0 else 1)


# ---------------- the scaling sweep ----------------

def main_sweep(args):
    """Per-layer log-log slopes of gen_analyze from 100 procedures upward."""
    build()
    run = Run(args.seed, 0, 1)
    os.makedirs(run.env["TMPDIR"])
    rows, predicted = [], None
    try:
        for procs in SWEEP_SIZES:
            if predicted is not None and predicted > args.point_budget_s:
                print(f"# {procs} procedures skipped: predicted {predicted:.0f} s "
                      f"exceeds the {args.point_budget_s} s point budget")
                break
            path = os.path.join(run.work, f"p{procs}.f")
            run.layers("gen", str(procs), str(run.subseed(f"sweep{procs}")), path)
            t0 = time.perf_counter()
            try:
                r = subprocess.run([IPCP, "analyze", path], stdout=subprocess.DEVNULL,
                                   env=run.env, timeout=args.point_budget_s)
                analyze_s = time.perf_counter() - t0
                m = run.layers("sweep-point", path, timeout=3 * args.point_budget_s)
            except subprocess.TimeoutExpired:
                print(f"# {procs} procedures stopped at the {args.point_budget_s} s budget")
                break
            if r.returncode != 0:
                fail(f"ipcp analyze exited {r.returncode} at {procs} procedures")
            m["analyze_s"] = analyze_s
            rows.append((procs, m))
            print(f"# {procs:6d} procedures: analyze {analyze_s:.3f} s, traced pass "
                  f"{time.perf_counter() - t0 - analyze_s:.3f} s", flush=True)
            if len(rows) >= 2:
                (p0, m0), (p1, m1) = rows[-2], rows[-1]
                k = max(1.0, math.log(m1["analyze_s"] / m0["analyze_s"]) / math.log(p1 / p0))
            else:
                k = 2.0
            nxt = [p for p in SWEEP_SIZES if p > procs]
            # the traced pass costs about as much again as the analyze
            predicted = 2.5 * analyze_s * (nxt[0] / procs) ** k if nxt else None
    finally:
        run.clean()
    names = ["analyze_s"] + SWEEP_LAYERS
    print("layer".ljust(32) + "".join(f"{p:>10d}" for p, _ in rows) + "     slope")
    for name in names:
        vals = [(p, m.get(name, 0.0)) for p, m in rows]
        k = slope(vals)
        print(name.ljust(32) + "".join(f"{v:10.3f}" for _, v in vals)
              + (f"  {k:8.2f}" if k is not None else "       n/a"))


# ---------------- comparing two result files ----------------

def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main_compare(args):
    spec = load_spec()
    bounds = {d["name"]: (d["better"], d.get("bound")) for d in spec["end_to_end"]}
    bounds.update({d["name"]: (d["better"], None) for d in spec["per_layer"]})
    a_recs, b_recs = load_records(args.compare[0]), load_records(args.compare[1])
    workloads = sorted({r["workload"] for r in a_recs + b_recs})
    print(f"{'workload':14s} {'metric':34s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'B/A-1':>7s} {'B won':>6s}  verdict")
    for wl in workloads:
        for trace in (0, 1):
            a = [r for r in a_recs if r["workload"] == wl and r["trace"] == trace]
            b = [r for r in b_recs if r["workload"] == wl and r["trace"] == trace]
            if not a or not b:
                continue
            names = sorted(set(a[0]["metrics"]) | set(a[0].get("extra", {})))
            for name in names:
                va, vb = values(a, name), values(b, name)
                if not va or not vb:
                    continue
                better, bound = bounds.get(name, (EXTRA_BETTER.get(name, "lower"), None))
                unit = (a[0]["metrics"].get(name) or a[0]["extra"][name])["unit"]
                if bound is None and unit != "count":
                    bound = MAX_BOUND
                frac = won(a, b, name, better)
                ma, mb = median(va), median(vb)
                delta = f"{mb / ma - 1:+7.3f}" if ma else "      -"
                print(f"{wl:14s} {name:34s} {summary(va):>30s} {summary(vb):>30s} "
                      f"{delta} {frac:6.2f}  {verdict(va, vb, better, bound, frac)}")


def values(recs, name):
    out = []
    for r in recs:
        m = r["metrics"].get(name) or r.get("extra", {}).get(name)
        if m is not None:
            out.append(m["value"])
    return out


def summary(xs):
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def won(a, b, name, better):
    """Share of pairs (matched by seed, else by order) in which B is better."""
    by_seed = {r["seed"]: r for r in a}
    pairs = []
    for i, rb in enumerate(b):
        ra = by_seed.get(rb["seed"]) or (a[i] if i < len(a) else None)
        if ra is not None:
            x, y = values([ra], name), values([rb], name)
            if x and y:
                pairs.append((x[0], y[0]))
    if not pairs:
        return 0.0
    wins = sum(1 for x, y in pairs if (y < x if better == "lower" else y > x))
    return wins / len(pairs)


def verdict(va, vb, better, bound, frac):
    """The rule of a claimed gain or regression.

    Improved: B wins at least nine tenths of the pairs and the medians
    differ by more than A's quartile spread.  Regressed: B's median is
    worse than A's by more than the bound.  Unresolved: the spread of
    either side is wider than the bound, unless every B beats every A.
    Metrics without a bound (per-layer ones) are held to exact equality
    when they are counts, and to MAX_BOUND otherwise."""
    qa, qb = quartiles(va), quartiles(vb)
    ma, mb = qa[1], qb[1]
    sign = 1 if better == "lower" else -1
    all_better = all(sign * (y - x) < 0 for x in va for y in vb)
    if all_better or (frac >= 0.9 and abs(mb - ma) > qa[2] - qa[0] and sign * (mb - ma) < 0):
        return "improved"
    if bound is None:
        return "unchanged" if ma == mb else "changed"
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    spread = max((qa[2] - qa[0]) / abs(ma) if ma else 0.0,
                 (qb[2] - qb[0]) / abs(mb) if mb else 0.0)
    if worse > bound:
        return "regressed"
    if spread > bound:
        return "unresolved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--point-budget-s", type=int, default=60)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        main_compare(args)
    elif args.sweep:
        main_sweep(args)
    elif args.workload:
        main_run(args)
    else:
        ap.error("give --workload, --sweep or --compare")


if __name__ == "__main__":
    main()
