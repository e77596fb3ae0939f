#!/usr/bin/env python3
"""Benchmark of the rlc_timing repository.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the program from source (dune), generates the workload's inputs
from the seed, measures for S seconds, checks the outputs, and prints one
JSON object as the last line of stdout.  With ``--trace 0`` its metrics are
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ledger.  Workloads: eco_serve, fig7_sweep and xtalk_flow (the gated set in
BENCHMARK.json) and cold_flow (ledger only); perfbench/README.md says what
each measures and why.

Two more entry points share the same code:

    python3 perfbench/run.py --ledger [--seed N] [--seconds S] [--smoke]
        every workload untraced and traced at one seed, every metric by
        name and unit, trace overhead and unaccounted time, the exact work
        counters, and the full-grid Figure-7 check; written to
        perfbench/ledger.json
    python3 perfbench/run.py --selftest
        tiny inputs: every named metric is emitted, and a deliberately
        corrupted output is counted as a failed op
"""

import argparse
import json
import os
import random
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

WORKLOADS = ('cold_flow', 'eco_serve', 'fig7_sweep', 'xtalk_flow')
WORK = '.perfbench_work'
BIN = os.path.join('_build', 'default', 'bin', 'rlc_timing.exe')
WORKER = os.path.join('_build', 'default', 'perfbench', 'worker.exe')
NPROC = len(os.sched_getaffinity(0))
JOBS = NPROC  # worker domains, daemon workers and client connections
SETUPS = 3  # set-up repetitions per run; setup_s is their median
CHAR_POINTS = 2 * 7 * 8  # characterization transients per driver size
READ_SHARE = 0.75  # eco_serve: three reads per write


def die(msg):
    print(f'perfbench: {msg}', file=sys.stderr)
    sys.exit(2)


def spec():
    with open('BENCHMARK.json') as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build():
    """Build the CLI and the worker from the checkout's sources."""
    for need in ('dune-project', 'lib', 'bin', os.path.join('perfbench', 'dune')):
        if not os.path.exists(need):
            die(f'{need} not found: run from the root of an rlc_timing checkout')
    dune = shutil.which('dune')
    cmd = [dune] if dune else ['opam', 'exec', '--', 'dune']
    r = subprocess.run(cmd + ['build', '--root', '.', './bin/rlc_timing.exe',
                              './perfbench/worker.exe'],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        die('build failed:\n' + r.stdout[-4000:])


def reset(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ------------------------------------------------------------- statistics

def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty sample."""
    s = sorted(xs)
    k = (len(s) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def ratio(num, den):
    return num / den if den else 0.0


def mean(xs):
    xs = list(xs)
    return ratio(sum(xs), len(xs))


# ---------------------------------------------------------------- tracing

SPAN = re.compile(r'"name": "([^"]+)".*?"tid": (\d+), "ts": ([-0-9.e+]+), "dur": ([-0-9.e+]+)')
KIND = re.compile(r'"kind": "([^"]+)"')
EPS_US = 2.0


def read_spans(path):
    """(tid, start_us, dur_us, name, kind) of every span of a Chrome trace."""
    spans = []
    with open(path) as f:
        for line in f:
            m = SPAN.search(line)
            if m:
                k = KIND.search(line)
                spans.append((int(m.group(2)), float(m.group(3)), float(m.group(4)),
                              m.group(1), k.group(1) if k else None))
    return spans


def self_times(spans, keep_root):
    """Per span name: (self seconds, count) over the spans whose outermost
    ancestor on their domain satisfies ``keep_root``; returned twice, over
    all domains and over the domains that issue ops only.

    A span's self time is its duration minus the time its direct children
    on the same domain cover; spans on one domain nest properly."""
    by_tid = {}
    for sp in spans:
        by_tid.setdefault(sp[0], []).append(sp)
    total, on_op = {}, {}
    op_tids = {sp[0] for sp in spans if sp[3] == 'bench.op' or
               (sp[3] == 'service.request' and keep_root(sp))}

    def close(entry):
        _, start, dur, name, kind, child, root = entry
        if keep_root(root):
            self_s = max(dur - child, 0.0) / 1e6
            for acc in ((total, on_op) if entry[0] in op_tids else (total,)):
                s, n = acc.get(name, (0.0, 0))
                acc[name] = (s + self_s, n + 1)

    for tid, items in by_tid.items():
        items.sort(key=lambda sp: (sp[1], -sp[2]))
        stack = []
        for sp in items:
            t, start, dur, name, kind = sp
            # A span is the top's child only if it lies inside it, up to
            # the clock's microsecond and the trace's printed precision.
            while stack and not (start + EPS_US < stack[-1][1] + stack[-1][2]
                                 and start + dur <= stack[-1][1] + stack[-1][2] + EPS_US):
                close(stack.pop())
            if stack:
                stack[-1][5] += dur
            root = stack[0][6] if stack else sp
            stack.append([t, start, dur, name, kind, 0.0, root])
        while stack:
            close(stack.pop())
    return total, on_op


# Span name -> ledger layer metric (self time, seconds).
LAYER_SPANS = {
    'ingest.s': ('ingest.spef', 'ingest.spec', 'ingest.design'),
    'characterize.s': ('flow.characterize', 'characterize'),
    'ceff.s': ('ceff.solve', 'model.screen', 'model.two_ramp'),
    'engine.compile_s': ('engine.compile',),
    'engine.factor_s': ('engine.factor',),
    'engine.dc_solve_s': ('engine.dc_solve',),
    'engine.step_loop_s': ('engine.step_loop',),
    'flow.solve_s': ('flow.solve', 'flow.level', 'flow.net', 'flow.arrivals'),
    'pool.batch_s': ('pool.batch',),
    'retime.s': ('flow.delta',),
    'xtalk.screen_s': ('xtalk.screen',),
    'xtalk.simulate_s': ('xtalk.victim',),
    'reference.s': ('reference.simulate',),
    'report.s': ('report.json', 'report.xtalk'),
    'protocol.decode_s': ('protocol.decode',),
    'protocol.encode_s': ('protocol.encode',),
}


def layer_seconds(times):
    return {metric: sum(times.get(n, (0.0, 0))[0] for n in names)
            for metric, names in LAYER_SPANS.items()}


def attributed(times):
    """Seconds inside a named layer span (bench.* and daemon request spans
    are the envelope, not a layer)."""
    return sum(layer_seconds(times).values())


def ledger_counts(c, obs):
    """Per-layer work counts shared by every workload."""
    hits, misses = c.get('characterize.hits', 0), c.get('characterize.misses', 0)
    eh, em = obs.get('engine.handle.hits', 0), obs.get('engine.handle.misses', 0)
    ch, cm = c.get('cache.hits', 0), c.get('cache.misses', 0)
    return {
        'ingest.bytes': c.get('ingest.bytes', 0),
        'ingest.nets': c.get('ingest.nets', 0),
        'characterize.misses': misses,
        'characterize.hits': hits,
        'characterize.hit_ratio': ratio(hits, hits + misses),
        'characterize.transients': misses * CHAR_POINTS,
        'ceff.iterations_run': obs.get('ceff.iterations_run', 0),
        'ceff.converged': obs.get('ceff.converged', 0),
        'engine.transients': obs.get('engine.transients', 0),
        'engine.steps': obs.get('engine.steps', 0),
        'engine.newton_iters': obs.get('engine.newton_iters', 0),
        'engine.refactors': obs.get('engine.refactors', 0),
        'engine.steps_rejected': obs.get('engine.steps_rejected', 0),
        'engine.handle_hit_ratio': ratio(eh, eh + em),
        'cache.hits': ch,
        'cache.misses': cm,
        'cache.hit_ratio': ratio(ch, ch + cm),
        'report.bytes': c.get('report.bytes', 0),
    }


# -------------------------------------------------------------- in-process

def worker(workload, args, inputs=None, trace_path=None):
    out = os.path.join(WORK, f'{workload}.out.json')
    cmd = [WORKER, workload, '--out', out, '--jobs', str(JOBS), '--setups', str(SETUPS),
           '--seed', str(args.seed)]
    cmd += ['--ops', str(args.ops)] if args.ops else ['--seconds', str(args.seconds)]
    if inputs:
        cmd += ['--inputs', inputs]
    if trace_path:
        cmd += ['--trace', trace_path]
    if args.corrupt:
        cmd += ['--corrupt']
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=170)
    if r.returncode != 0:
        die(f'worker {workload} exited {r.returncode}:\n{r.stderr[-3000:]}')
    with open(out) as f:
        return json.load(f)


def write_designs(path, designs):
    for d in designs:
        with open(os.path.join(path, d.name + '.spef'), 'w') as f:
            f.write(d.spef())
        with open(os.path.join(path, d.name + '.spec'), 'w') as f:
            f.write(d.spec())


def in_process(workload, args, make_designs):
    """Run an in-process workload; returns the common result record."""
    inputs = None
    setup_py = []
    if make_designs:
        # Input generation is part of set-up: timed here, once per
        # repetition, and added to the worker's own set-up.
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            inputs = reset(os.path.join(WORK, workload + '.inputs'))
            write_designs(inputs, make_designs(random.Random(f'{args.seed}:{workload}')))
            setup_py.append(time.perf_counter() - t0)
    trace_path = os.path.join(WORK, workload + '.trace.json') if args.trace else None
    w = worker(workload, args, inputs, trace_path)
    setup = [a + b for a, b in zip(w['setup_s'], setup_py)] if setup_py else w['setup_s']
    res = {
        'setup': setup, 'lat_ms': w['lat_ms'], 'wall_s': w['wall_s'],
        'attempted': w['attempted'], 'failed': w['failed'], 'checks': w['checks'],
        'rss_kb': w['peak_rss_kb'], 'counts': w['counts'], 'obs': w['obs_counters'],
        'stat_sums': w['obs_stat_sums'], 'raw': w,
    }
    if trace_path:
        spans = read_spans(trace_path)
        window = [sp for sp in spans if sp[3] == 'bench.timed']
        t0, t1 = window[0][1], window[0][1] + window[0][2]
        total, on_op = self_times(
            spans, lambda root: t0 - EPS_US <= root[1] and root[1] + root[2] <= t1 + EPS_US)
        n_op_domains = len({sp[0] for sp in spans if sp[3] == 'bench.op'})
        res['self'] = total
        res['unaccounted_pct'] = 100 * (1 - ratio(attributed(on_op), res['wall_s'] * n_op_domains))
    return res


def cold_flow(args):
    n = args.designs or 16
    return in_process('cold_flow', args, lambda rng: [
        gen.bus_design(rng, f'cold{i:03d}') for i in range(n)])


def xtalk_flow(args):
    n = args.designs or 8

    def make(rng):
        sizes = gen.draw_sizes(rng)
        return [gen.coupled_design(rng, f'xtalk{i:03d}', sizes=sizes) for i in range(n)]
    return in_process('xtalk_flow', args, make)


def fig7_sweep(args):
    res = in_process('fig7_sweep', args, None)
    cases = res['raw']['cases']
    baseline = fig7_baseline()
    bad = [c['label'] for c in cases
           if not c['inductive'] or not rows_match(c['row'], baseline['rows'].get(c['label']))]
    for label in bad[:5]:
        print(f'perfbench: fig7 case {label!r} differs from baselines/fig7_fixed.txt',
              file=sys.stderr)
    res['failed'] += len(bad)  # one failed op per mismatched case
    probe = list({c['label']: c for c in reversed(cases) if c['probe']}.values())
    res['accuracy'] = {
        'accuracy.delay_err_pct': mean(c['delay_err_pct'] for c in probe),
        'accuracy.slew_err_pct': mean(c['slew_err_pct'] for c in probe),
        'accuracy.cases': len(probe),
    }
    return res


def fig7_baseline():
    """The committed fixed-step Figure-7 output: per-label scatter rows
    and the summary table's Eq. 8 column."""
    path = os.path.join('baselines', 'fig7_fixed.txt')
    if not os.path.exists(path):
        die(f'{path} not found')
    rows, summary = {}, {}
    with open(path) as f:
        for line in f:
            m = re.match(r'\s*([-\d.]+\s+[-\d.]+\s+[-\d.]+\s+[-\d.]+)\s\s(\S.*)$', line)
            if m:
                rows[m.group(2).strip()] = m.group(1)
            for key in ('inductive cases', 'avg |delay err| %', 'avg |slew err| %'):
                if line.startswith(key):
                    summary[key] = float(line[len(key):].split()[1])
    return {'rows': rows, 'summary': summary}


def close_enough(a, b):
    """The CI tolerance for the committed fixed-step baselines."""
    return abs(a - b) <= 0.15 or abs(a - b) <= 2e-3 * abs(b)


def rows_match(got, want):
    if want is None:
        return False
    g, w = got.split(), want.split()
    return len(g) == len(w) and all(close_enough(float(a), float(b)) for a, b in zip(g, w))


# ---------------------------------------------------------------- eco_serve

class Daemon:
    """A resident ``rlc_timing serve`` on a Unix socket (relative path, so
    it stays short and inside the checkout)."""

    def __init__(self, sizes, trace_dir=None):
        self.sock_path = os.path.join(WORK, 'eco.sock')
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        cmd = [BIN, 'serve', '--socket', self.sock_path, '--workers', str(JOBS), '--jobs', '1',
               '--warm', ','.join(str(s) for s in sizes), '--designs', '8']
        if trace_dir:
            cmd += ['--trace', os.path.join(trace_dir, 'daemon.trace.json'),
                    '--metrics-json', os.path.join(trace_dir, 'daemon.metrics.json')]
        self.log = open(os.path.join(WORK, 'daemon.log'), 'w')
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=self.log)
        self.conns = []

    def connect(self, n):
        deadline = time.monotonic() + 120
        while len(self.conns) < n:
            if self.proc.poll() is not None:
                die(f'daemon exited with {self.proc.returncode} (see {self.log.name})')
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                self.conns.append(Conn(s))
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    die('daemon socket never came up')
                time.sleep(0.01)
        return self.conns

    def peak_rss_kb(self):
        with open(f'/proc/{self.proc.pid}/status') as f:
            for line in f:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None and self.conns:
            try:
                self.conns[0].call(json.dumps({'schema': 'rlc-service/1', 'id': 0,
                                               'kind': 'shutdown'}))
            except OSError:
                pass
        for c in self.conns:
            c.sock.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Conn:
    def __init__(self, sock):
        self.sock, self.buf = sock, b''

    def send(self, line):
        self.sock.sendall(line.encode() + b'\n')

    def take_line(self):
        """A complete response line if one is buffered, else None."""
        i = self.buf.find(b'\n')
        if i < 0:
            return None
        line, self.buf = self.buf[:i], self.buf[i + 1:]
        return line.decode()

    def fill(self):
        data = self.sock.recv(1 << 20)
        if not data:
            raise OSError('daemon closed the connection')
        self.buf += data

    def call(self, line):
        self.send(line)
        while True:
            got = self.take_line()
            if got is not None:
                return got
            self.fill()


class Client:
    """One closed-loop ECO client: its resident design, its seeded
    read/write stream, and what it saw."""

    def __init__(self, seed, index, sizes):
        self.rng = random.Random(f'{seed}:eco_serve:{index}')
        self.design = gen.bus_design(self.rng, f'eco{index}', sizes=sizes)
        self.handle = None
        self.read_line = None
        self.last_report = None
        self.next_id = 1
        self.issued = 0

    def next_request(self):
        self.next_id += 1
        if self.rng.random() < READ_SHARE:
            if self.read_line is None:
                self.read_line = gen.flow_line(0, self.design)
            return 'read', self.read_line
        edit = gen.eco_edit(self.rng, self.design)
        self.read_line = None
        return 'write', gen.delta_line(self.next_id, self.handle, edit)


def eco_setup(args, trace_dir):
    rng = random.Random(f'{args.seed}:eco_serve')
    sizes = gen.draw_sizes(rng)
    clients = [Client(args.seed, c, sizes) for c in range(JOBS)]
    daemon = Daemon(sizes, trace_dir)
    try:
        conns = daemon.connect(len(clients))
        # The load generator is this one thread driving at most nproc
        # connections against a daemon of at most nproc workers.
        assert len(conns) <= NPROC and threading.active_count() == 1
        for c, conn in zip(clients, conns):
            resp = json.loads(conn.call(gen.load_line(1, c.design)))
            if not resp.get('ok'):
                die(f'design_load failed: {resp}')
            c.handle, c.last_report = resp['handle'], resp['report']
    except BaseException:
        daemon.stop()
        raise
    return daemon, clients


def metrics_of(conn):
    """The daemon's own totals (cache, characterization, compiled-handle
    and design-store counters), answered inline."""
    return json.loads(conn.call(json.dumps({'schema': 'rlc-service/2', 'id': 0,
                                            'kind': 'metrics'})))


def eco_serve(args):
    trace_dir = reset(os.path.join(WORK, 'eco_trace')) if args.trace else None
    setup = []
    for rep in range(SETUPS):
        t0 = time.perf_counter()
        daemon, clients = eco_setup(args, trace_dir)
        setup.append(time.perf_counter() - t0)
        if rep < SETUPS - 1:
            daemon.stop()
    try:
        return eco_timed(args, daemon, clients, setup, trace_dir)
    finally:
        daemon.stop()


def eco_timed(args, daemon, clients, setup, trace_dir):
    conns = daemon.conns
    before = metrics_of(conns[0])
    sel = selectors.DefaultSelector()
    pending = {}
    lat = {'read': [], 'write': []}
    tally = dict.fromkeys(('failed', 'retimed', 'reused', 'read_misses', 'read_bytes',
                           'bytes_in', 'bytes_out'), 0)
    samples = {'requests': [], 'responses': [], 'reads': []}
    # With --ops every client issues an equal share, so the per-client
    # streams (and the work counts) do not depend on scheduling.
    quota = args.ops // len(clients) if args.ops else None

    def issue(i):
        c = clients[i]
        kind, line = c.next_request()
        c.issued += 1
        tally['bytes_in'] += len(line) + 1
        if kind == 'read':
            tally['read_bytes'] += len(line) + 1
        if args.trace and c.issued % 16 == 1 and len(samples['requests']) < 300:
            samples['requests'].append(line)
            if kind == 'read' and len(samples['reads']) < 24:
                samples['reads'].append(line)
        pending[i] = (kind, time.perf_counter())
        conns[i].send(line)

    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    for i, conn in enumerate(conns):
        sel.register(conn.sock, selectors.EVENT_READ, i)
        issue(i)
    while pending:
        for key, _ in sel.select():
            i = key.data
            conns[i].fill()
            line = conns[i].take_line()
            if line is None:
                continue
            kind, t0 = pending.pop(i)
            lat[kind].append((time.perf_counter() - t0) * 1e3)
            tally['bytes_out'] += len(line) + 1
            if args.trace and len(samples['responses']) < len(samples['requests']):
                samples['responses'].append(line)
            if kind == 'write':
                resp = json.loads(line)
                if not resp.get('ok'):
                    tally['failed'] += 1
                else:
                    clients[i].last_report = resp['report']
                    tally['retimed'] += resp['retimed_nets']
                    tally['reused'] += resp['reused_nets']
            else:
                if '"ok":true' not in line[:64]:
                    tally['failed'] += 1
                m = re.search(r'"cache_misses":(\d+)', line[-400:])
                tally['read_misses'] += int(m.group(1)) if m else 0
            done = (clients[i].issued >= quota if quota
                    else time.perf_counter() >= deadline)
            if not done:
                issue(i)
    wall = time.perf_counter() - t_start
    sel.close()
    after = metrics_of(conns[0])
    rss_kb = daemon.peak_rss_kb()
    daemon.stop()

    # Output check: each client's last report equals a cold one-shot
    # `rlc_timing flow` of its cumulatively edited sources.
    check_dir = reset(os.path.join(WORK, 'eco_check'))
    procs = []
    for c in clients:
        base = os.path.join(check_dir, c.design.name)
        with open(base + '.spef', 'w') as f:
            f.write(c.design.spef())
        with open(base + '.spec', 'w') as f:
            f.write(c.design.spec())
        procs.append(subprocess.Popen([BIN, 'flow', '--spef', base + '.spef', '--spec',
                                       base + '.spec', '--json', base + '.json'],
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
    checks = {}
    for k, (c, p) in enumerate(zip(clients, procs)):
        path = os.path.join(check_dir, c.design.name + '.json')
        cold = None
        if p.wait(timeout=120) == 0 and os.path.exists(path):
            with open(path) as f:
                cold = f.read()
        served = c.last_report
        if args.corrupt and k == 0:
            served = served[:-2] + ('x' if served[-2] != 'x' else 'y') + served[-1]
        checks[f'delta_equals_cold:{c.design.name}'] = served == cold

    n = len(lat['read']) + len(lat['write'])
    res = {
        'setup': setup, 'lat_ms': lat['read'] + lat['write'], 'wall_s': wall,
        'attempted': n, 'failed': tally['failed'], 'checks': checks, 'rss_kb': rss_kb,
        'counts': {'reads': len(lat['read']), 'writes': len(lat['write']),
                   'nets_per_design': len(clients[0].design.order())},
        'lat_by_kind': lat,
    }
    if trace_dir:
        res.update(eco_ledger(args, trace_dir, res, before, after, tally, samples))
    return res


def eco_ledger(args, trace_dir, res, before, after, tally, samples):
    """Daemon-side ledger: self times from the daemon's own trace (only
    requests of the timed phase), counters from its metrics dump, and the
    uninstrumented protocol/ingest/report layers replayed in the worker."""
    with open(os.path.join(trace_dir, 'daemon.metrics.json')) as f:
        dm = json.load(f)
    spans = read_spans(os.path.join(trace_dir, 'daemon.trace.json'))
    timed_kinds = ('flow', 'flow_delta')
    total, _ = self_times(
        spans, lambda root: root[3] == 'service.request' and root[4] in timed_kinds)
    service_s = sum(sp[2] for sp in spans
                    if sp[3] == 'service.request' and sp[4] in timed_kinds) / 1e6
    queue_s = dm['stats'].get('service.queue_wait_s', {}).get('sum', 0.0)
    lat_s = sum(res['lat_ms']) / 1e3
    n_req = res['attempted']
    reads = res['counts']['reads']

    replay_dir = reset(os.path.join(WORK, 'replay'))
    for name, lines in samples.items():
        with open(os.path.join(replay_dir, name + '.ndjson'), 'w') as f:
            f.write('\n'.join(lines) + '\n')
    rp_trace = os.path.join(replay_dir, 'replay.trace.json')
    rargs = argparse.Namespace(**dict(vars(args), ops=0, seconds=0, corrupt=False))
    worker('replay', rargs, replay_dir, rp_trace)
    rp, _ = self_times(read_spans(rp_trace), lambda root: True)

    def per(name, n_sample, n_total):
        s, _ = rp.get(name, (0.0, 0))
        return s / n_sample * n_total if n_sample else 0.0

    n_reads = len(samples['reads'])
    ingest_read = sum(per(n, n_reads, reads)
                      for n in ('ingest.spef', 'ingest.spec', 'ingest.design'))

    def delta(block, key):
        return after[block][key] - before[block][key]

    # Cache, characterization and handle counts cover the timed phase
    # exactly; the engine and Ceff counters come from the daemon's exit
    # dump and so also hold the two cold design_loads of set-up.
    counters = dict(dm['counters'], **{'engine.handle.hits': delta('handles', 'hits'),
                                       'engine.handle.misses': delta('handles', 'misses')})
    c = {'cache.hits': delta('cache', 'hits'), 'cache.misses': delta('cache', 'misses'),
         'characterize.hits': delta('characterization', 'hits'),
         'characterize.misses': delta('characterization', 'misses'),
         'ingest.nets': reads * res['counts']['nets_per_design'],
         'ingest.bytes': tally['read_bytes']}
    layers = layer_seconds(total)
    layers.update({
        'ingest.s': ingest_read,
        'report.s': layers['report.s'] + per('report.json', n_reads, n_req),
        'protocol.decode_s': per('protocol.decode', len(samples['requests']), n_req),
        'protocol.encode_s': per('protocol.encode', len(samples['responses']), n_req),
    })
    transport = max(lat_s - service_s - queue_s, 0.0)
    request_self = total.get('service.request', (0.0, 0))[0]
    return {
        'self': total, 'layers': layers, 'obs': counters, 'counts': dict(res['counts'], **c),
        'stat_sums': {k: v.get('sum', 0.0) for k, v in dm['stats'].items()},
        'unaccounted_pct': 100 * ratio(request_self, lat_s),
        'eco': {
            'retime.retimed_nets': tally['retimed'], 'retime.reused_nets': tally['reused'],
            'retime.retimed_ratio': ratio(tally['retimed'], tally['retimed'] + tally['reused']),
            'protocol.bytes_in': tally['bytes_in'], 'protocol.bytes_out': tally['bytes_out'],
            'server.service_s': service_s, 'server.queue_wait_s': queue_s,
            'server.transport_s': transport,
            'session.design_evictions': after['designs']['evictions'],
            'cache.read_misses': tally['read_misses'],
        },
    }


# ---------------------------------------------------------------- metrics

RUNNERS = {'cold_flow': cold_flow, 'eco_serve': eco_serve, 'fig7_sweep': fig7_sweep,
           'xtalk_flow': xtalk_flow}


def end_to_end(res):
    lat = res['lat_ms']
    if not lat:
        die('no op completed in the timed phase')
    return {
        'setup_s': statistics.median(res['setup']),
        'op_p50_ms': quantile(lat, 0.5),
        'op_p90_ms': quantile(lat, 0.9),
        'ops_per_s': len(lat) / res['wall_s'],
        'peak_rss_mb': res['rss_kb'] / 1024,
    }


def per_layer(workload, res):
    """Every per-layer metric of the ledger for one traced run."""
    c, obs, sums = res['counts'], res['obs'], res.get('stat_sums', {})
    m = dict.fromkeys(LAYER_UNITS, 0)
    m.update(ledger_counts(c, obs))
    layers = res.get('layers') or layer_seconds(res['self'])
    m.update({k: layers[k] for k in LAYER_SPANS if k in m})
    m['engine.s'] = sum(layers[k] for k in ('engine.compile_s', 'engine.factor_s',
                                            'engine.dc_solve_s', 'engine.step_loop_s'))
    m['pool.queue_wait_s'] = sums.get('pool.queue_wait_s', 0.0)
    pairs, screened = c.get('xtalk.pairs', 0), c.get('xtalk.screened', 0)
    m['xtalk.pairs'] = pairs
    m['xtalk.screened'] = screened
    m['xtalk.screen_ratio'] = ratio(screened, pairs)
    # One victim-quiet noise transient per simulated victim, plus the
    # alignment sweep's transients.
    m['xtalk.cluster_transients'] = (c.get('xtalk.victims_simulated', 0)
                                     + c.get('xtalk.alignment_sims', 0))
    if workload == 'fig7_sweep':
        m['reference.transients'] = res['attempted']
        m['sweep.cases'] = res['attempted']
    m.update(res.get('eco', {}))
    # Work and time are per op, so runs that complete different numbers
    # of ops in their fixed time stay comparable.
    m = {k: v / res['attempted'] if LAYER_UNITS[k].endswith('/op') else v
         for k, v in m.items()}
    m.update(res.get('accuracy', {}))
    m['unaccounted_pct'] = res['unaccounted_pct']
    return m


# Metric name -> unit, from BENCHMARK.json.
E2E_UNITS, LAYER_UNITS = {}, {}


def run_once(workload, args):
    res = RUNNERS[workload](args)
    res['failed'] += sum(1 for ok in res['checks'].values() if not ok)
    return res


def result_line(workload, args, res):
    if args.trace:
        values, units = per_layer(workload, res), LAYER_UNITS
    else:
        values, units = end_to_end(res), E2E_UNITS
    missing = [n for n in units if n not in values]
    if missing:
        die(f'metrics not produced: {missing}')
    failed = min(res['failed'], res['attempted'])
    return {'correct': failed == 0 and all(res['checks'].values()),
            'attempted': res['attempted'], 'failed': failed,
            'metrics': {n: {'value': values[n], 'unit': units[n]} for n in units}}


def summary(workload, res):
    lat = res['lat_ms']
    print(f'{workload}: {len(lat)} ops in {res["wall_s"]:.2f} s, setup runs '
          f'{", ".join(f"{s:.3f}" for s in res["setup"])} s, '
          f'fail_frac {ratio(res["failed"], res["attempted"]):.4f}, checks {res["checks"]}')
    if 'lat_by_kind' in res:
        for kind, xs in res['lat_by_kind'].items():
            if xs:
                print(f'  {kind}: n={len(xs)} p50={quantile(xs, .5):.3f} ms '
                      f'p90={quantile(xs, .9):.3f} ms')


# ----------------------------------------------------------------- ledger

def git_rev():
    try:
        return subprocess.run(['git', 'rev-parse', 'HEAD'], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip() or 'unknown'
    except OSError:
        return 'unknown'


def ocaml_version():
    try:
        return subprocess.run(['ocamlfind', 'ocamlopt', '-version'], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip() or \
            subprocess.run(['ocaml', '-vnum'], stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        return 'unknown'


COUNT_METRICS = ('ingest.bytes', 'ingest.nets', 'characterize.misses', 'characterize.hits',
                 'characterize.transients', 'ceff.iterations_run', 'ceff.converged',
                 'engine.transients', 'engine.steps', 'engine.newton_iters', 'engine.refactors',
                 'engine.steps_rejected', 'cache.hits', 'cache.misses', 'retime.retimed_nets',
                 'retime.reused_nets', 'xtalk.pairs', 'xtalk.screened',
                 'xtalk.cluster_transients', 'reference.transients', 'sweep.cases',
                 'report.bytes', 'protocol.bytes_in', 'protocol.bytes_out',
                 'session.design_evictions', 'cache.read_misses')

FIXED_OPS = {'cold_flow': 3, 'eco_serve': 200, 'fig7_sweep': 24, 'xtalk_flow': 3}


def ledger(args):
    record = {
        'schema': 'perfbench-ledger/1', 'seed': args.seed, 'nproc': NPROC, 'jobs': JOBS,
        'git_rev': git_rev(), 'ocaml': ocaml_version(), 'run_seconds': args.seconds,
        'smoke': args.smoke, 'workloads': {},
    }
    gated = {w['name'] for w in spec()['workloads']}
    for w in WORKLOADS:
        entry = record['workloads'][w] = {'gated': w in gated}
        plain = run_once(w, argparse.Namespace(**dict(vars(args), trace=0)))
        traced = run_once(w, argparse.Namespace(**dict(vars(args), trace=1)))
        e2e = end_to_end(plain)
        e2e['fail_frac'] = ratio(plain['failed'], plain['attempted'])
        layers = per_layer(w, traced)
        if w == 'fig7_sweep':
            e2e['delay_err_pct'] = layers['accuracy.delay_err_pct']
            e2e['slew_err_pct'] = layers['accuracy.slew_err_pct']
        entry['end_to_end'] = e2e
        entry['samples'] = len(plain['lat_ms'])
        entry['per_layer'] = layers
        entry['trace_overhead_pct'] = 100 * (
            ratio(e2e['ops_per_s'], end_to_end(traced)['ops_per_s']) - 1)
        entry['unaccounted_pct'] = layers['unaccounted_pct']
        # Work counters over a fixed number of ops, twice at one seed:
        # equal runs mark a counter exact, unequal ones keep their spread.
        fixed = [per_layer(w, run_once(w, argparse.Namespace(
            **dict(vars(args), trace=1, ops=FIXED_OPS[w])))) for _ in range(2)]
        entry['work'] = {'ops': FIXED_OPS[w], 'counters': {
            k: ({'value': fixed[0][k], 'exact': True} if fixed[0][k] == fixed[1][k] else
                {'values': [fixed[0][k], fixed[1][k]], 'exact': False})
            for k in COUNT_METRICS}}
        print_entry(w, entry)
    if not args.smoke:
        record['fig7_full_grid'] = fig7_full(args)
        print(f'fig7 full grid: {record["fig7_full_grid"]}')
    path = args.out or os.path.join('perfbench', 'ledger.json')
    with open(path, 'w') as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write('\n')
    print(f'ledger written to {path}')
    bad = [w for w, e in record['workloads'].items() if e['end_to_end']['fail_frac'] > 0]
    if bad or not record.get('fig7_full_grid', {}).get('ok', True):
        die(f'output checks failed: {bad or "fig7 full grid"}')


def print_entry(w, e):
    print(f'== {w} ({e["samples"]} samples)')
    units = dict(E2E_UNITS, fail_frac='ratio', delay_err_pct='%', slew_err_pct='%')
    for k, v in e['end_to_end'].items():
        print(f'  {k:28s} {v:14.6g} {units[k]}')
    for k, v in e['per_layer'].items():
        print(f'  {k:28s} {v:14.6g} {LAYER_UNITS.get(k, "")}')
    print(f'  {"trace_overhead_pct":28s} {e["trace_overhead_pct"]:14.6g} %')
    exact = [k for k, v in e['work']['counters'].items() if v['exact']]
    print(f'  exact counters over {e["work"]["ops"]} ops: {", ".join(exact)}')


def fig7_full(args):
    """Every inductive case of the grid once: the summary must match the
    committed baseline's Eq. 8 column within CI's tolerance."""
    want = fig7_baseline()['summary']
    a = argparse.Namespace(**dict(vars(args), trace=0, ops=int(want['inductive cases']),
                                  corrupt=False))
    res = fig7_sweep(a)
    cases = res['raw']['cases']
    got = {'inductive cases': res['counts']['sweep.inductive'],
           'avg |delay err| %': mean(c['delay_err_pct'] for c in cases),
           'avg |slew err| %': mean(c['slew_err_pct'] for c in cases)}
    ok = res['failed'] == 0 and len(cases) == want['inductive cases'] and all(
        close_enough(round(got[k], 1), want[k]) for k in want)
    return {'ok': ok, 'cases': len(cases), 'got': got, 'baseline': want}


# --------------------------------------------------------------- selftest

def selftest(args):
    """Tiny inputs through every workload, traced and untraced: every named
    metric is emitted, outputs check clean, and a corrupted output counts
    as a failed op."""
    problems = []
    for w in WORKLOADS:
        base = dict(vars(args), seconds=1, ops=0, designs=2)
        for trace in (0, 1):
            res = run_once(w, argparse.Namespace(**dict(base, trace=trace)))
            line = result_line(w, argparse.Namespace(**dict(base, trace=trace)), res)
            if not line['correct'] or line['failed']:
                problems.append(f'{w} trace={trace}: clean run failed {res["checks"]}')
            print(f'{w} trace={trace}: {len(line["metrics"])} metrics, ok')
        bad = run_once(w, argparse.Namespace(**dict(base, trace=0, corrupt=True)))
        if bad['failed'] < 1:
            problems.append(f'{w}: corrupted output not counted as failed')
        print(f'{w} corrupted: failed={bad["failed"]}')
    if problems:
        die('selftest failed:\n  ' + '\n  '.join(problems))
    print('selftest: ok')


# ------------------------------------------------------------------- main

def main():
    p = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    p.add_argument('--workload', choices=WORKLOADS)
    p.add_argument('--seed', type=int, default=1)
    p.add_argument('--seconds', type=float, default=None)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    p.add_argument('--ops', type=int, default=0, help='fixed op count instead of --seconds')
    p.add_argument('--designs', type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument('--corrupt', action='store_true', help=argparse.SUPPRESS)
    p.add_argument('--ledger', action='store_true')
    p.add_argument('--selftest', action='store_true')
    p.add_argument('--smoke', action='store_true', help='ledger: short runs, no full-grid check')
    p.add_argument('--out', help='ledger: output path')
    args = p.parse_args()
    if not os.path.exists('BENCHMARK.json'):
        die('BENCHMARK.json not found: run from the root of the checkout')
    s = spec()
    E2E_UNITS.update({e['name']: e['unit'] for e in s['end_to_end']})
    LAYER_UNITS.update({e['name']: e['unit'] for e in s['per_layer']})
    if args.seconds is None:
        args.seconds = 2 if args.smoke else s['run_seconds']
    build()
    os.makedirs(WORK, exist_ok=True)
    if args.selftest:
        return selftest(args)
    if args.ledger:
        return ledger(args)
    if not args.workload:
        die('--workload is required')
    res = run_once(args.workload, args)
    summary(args.workload, res)
    print(json.dumps(result_line(args.workload, args, res)))


if __name__ == '__main__':
    main()
