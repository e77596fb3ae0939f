"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` built from the workload seed, so
one seed always yields the same designs and the same ECO stream.  The
program under test only ever sees the SPEF, spec and wire lines rendered
here.

Designs follow ``examples/bus8.spef``: each bus bit ``b<i>`` is an
inductive global wire (4 RLC segments) whose receiver drives a short RC
local net ``o<i>``.  Per-net values are drawn, so no two nets share a
Ceff cache key.
"""

import json

HEADER = ('*SPEF "IEEE 1481-1998"\n*DESIGN "{name}"\n*T_UNIT 1 PS\n*C_UNIT 1 FF\n'
          '*R_UNIT 1 OHM\n*L_UNIT 1 PH\n')

SIZE_RANGE = (25, 125)


def draw_sizes(rng, n=3):
    """``n`` driver sizes (X) drawn from 25-125X, one from each of ``n``
    equal bands: small drivers characterize slower than large ones, so
    every design gets the same mix."""
    lo, hi = SIZE_RANGE
    width = (hi - lo + 1) / n
    return [rng.randint(lo + round(k * width), lo + round((k + 1) * width) - 1)
            for k in range(n)]


class Net:
    """One net's parasitics: segment caps (fF), resistances (ohm),
    optional inductances (pH), and cross-net couplings (node, node, fF)."""

    def __init__(self, name, caps, res, ind=None):
        self.name, self.caps, self.res, self.ind = name, caps, res, ind
        self.couplings = []

    def nodes(self):
        n = len(self.caps)
        return [f'{self.name}_{k}' for k in range(1, n)] + [f'{self.name}_rcv']

    def block(self):
        nodes = self.nodes()
        total = sum(self.caps) + sum(c for _, _, c in self.couplings)
        out = [f'*D_NET {self.name} {total:g}', '*CONN', f'*P {self.name}_drv O',
               f'*P {self.name}_rcv I', '*CAP']
        k = 0
        for node, c in zip(nodes, self.caps):
            k += 1
            out.append(f'{k} {node} {c:g}')
        for a, b, c in self.couplings:
            k += 1
            out.append(f'{k} {a} {b} {c:g}')
        out.append('*RES')
        prev = f'{self.name}_drv'
        for k, (node, r) in enumerate(zip(nodes, self.res), 1):
            out.append(f'{k} {prev} {node} {r:g}')
            prev = node
        if self.ind:
            out.append('*INDUC')
            prev = f'{self.name}_drv'
            for k, (node, l) in enumerate(zip(nodes, self.ind), 1):
                out.append(f'{k} {prev} {node} {l:g}')
                prev = node
        out.append('*END')
        return '\n'.join(out) + '\n'


def bus_net(rng, name):
    seg = 4
    return Net(name, [round(rng.uniform(120, 200), 1) for _ in range(seg)],
               [round(rng.uniform(14, 24), 1) for _ in range(seg)],
               [round(rng.uniform(900, 1300)) for _ in range(seg)])


def local_net(rng, name):
    return Net(name, [round(rng.uniform(30, 60), 1) for _ in range(2)],
               [round(rng.uniform(40, 80), 1) for _ in range(2)])


class Design:
    """A generated bus: ``bits`` inductive bits, each feeding a local net."""

    def __init__(self, rng, name, bits, sizes):
        self.name, self.bits, self.sizes = name, bits, list(sizes)
        self.nets = {}
        self.drivers, self.slews, self.loads = {}, {}, {}
        for i in range(bits):
            b, o = f'b{i}', f'o{i}'
            self.nets[b] = bus_net(rng, b)
            self.nets[o] = local_net(rng, o)
            self.drivers[b] = rng.choice(self.sizes)
            self.drivers[o] = rng.choice(self.sizes)
            self.slews[b] = rng.randint(60, 140)
            self.loads[o] = rng.randint(2, 8)

    def spef(self):
        return HEADER.format(name=self.name) + ''.join(
            self.nets[n].block() for n in self.order())

    def order(self):
        return [p + str(i) for i in range(self.bits) for p in ('b', 'o')]

    def spec(self):
        lines = []
        for i in range(self.bits):
            b, o = f'b{i}', f'o{i}'
            lines += [f'driver {b} {self.drivers[b]}', f'input {b} {self.slews[b]}',
                      f'driver {o} {self.drivers[o]}', f'edge {b} {b}_rcv {o}',
                      f'load {o} {o}_rcv {self.loads[o]}']
        return '\n'.join(lines) + '\n'


def bus_design(rng, name, bits=16, sizes=None):
    return Design(rng, name, bits, sizes or draw_sizes(rng))


def coupled_design(rng, name, bits=8, sizes=None):
    """A routed bus after ``examples/bus8_coupled.spef``: every other
    adjacent bus pair (b0-b1, b2-b3, ...) is coupled strongly and survives
    the noise screen; the pairs between them, next-nearest bits and local
    nets are coupled weakly and are screened out.  Only the values are
    drawn, so every design carries the same coupled-cluster work."""
    d = Design(rng, name, bits, sizes or draw_sizes(rng))
    for i in range(bits - 1):
        a, b = d.nets[f'b{i}'], d.nets[f'b{i + 1}']
        strong = i % 2 == 0
        for na, nb in zip(a.nodes(), b.nodes()):
            c = rng.uniform(30, 45) if strong else rng.uniform(0.5, 2)
            a.couplings.append((na, nb, round(c, 1)))
        if i + 2 < bits:
            a.couplings.append((a.nodes()[1], d.nets[f'b{i + 2}'].nodes()[1],
                                round(rng.uniform(1, 4), 1)))
        oa, ob = d.nets[f'o{i}'], d.nets[f'o{i + 1}']
        oa.couplings.append((oa.nodes()[0], ob.nodes()[0], round(rng.uniform(1, 3), 1)))
    return d


def flow_line(req_id, design):
    """A v1 ``flow`` request carrying the design's current sources inline."""
    return json.dumps({'schema': 'rlc-service/1', 'id': req_id, 'kind': 'flow',
                       'spef': design.spef(), 'spec': design.spec()},
                      separators=(',', ':'))


def load_line(req_id, design):
    return json.dumps({'schema': 'rlc-service/2', 'id': req_id, 'kind': 'design_load',
                       'spef': design.spef(), 'spec': design.spec()},
                      separators=(',', ':'))


def eco_edit(rng, design):
    """Draw one ECO write and apply it to ``design``: a net-block
    replacement with fresh parasitics, a driver resize among the design's
    sizes, or a primary-input slew edit.  Returns the ``flow_delta`` edit
    fields."""
    kind = rng.choice(('net', 'driver', 'slew'))
    if kind == 'net':
        name = rng.choice(design.order())
        design.nets[name] = (bus_net if name[0] == 'b' else local_net)(rng, name)
        return {'nets': {name: design.nets[name].block()}}
    if kind == 'driver':
        name = rng.choice(design.order())
        design.drivers[name] = rng.choice(
            [s for s in design.sizes if s != design.drivers[name]])
        return {'drivers': {name: design.drivers[name]}}
    name = f'b{rng.randrange(design.bits)}'
    design.slews[name] = rng.choice(
        [s for s in range(60, 141) if s != design.slews[name]])
    return {'slews_ps': {name: design.slews[name]}}


def delta_line(req_id, handle, edit):
    return json.dumps(dict({'schema': 'rlc-service/2', 'id': req_id, 'kind': 'flow_delta',
                            'handle': handle}, **edit), separators=(',', ':'))
