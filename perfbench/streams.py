"""Seeded request streams for the glqld service benchmark.

`generate(workload, seed)` returns the rows of one stream file (see
perfbench/stream.ml for the format). The same seed gives the same bytes;
the daemon only ever sees the generated lines.

Every measured phase is open loop at a constant rate: request i of a
phase is due at i / rate seconds. A mix is a weighted list of request
kinds; each phase draws its kinds by stratified sampling (the count of
every kind is fixed by its weight, the seed only shuffles the order and
picks the spelling and arguments), so two seeds load the daemon with the
same work in a different order.
"""

import random

# ---------------------------------------------------------------- corpus

# name -> (spec, vertices). Every graph a request names is LOADed in
# setup, so no request falls back to spec-as-name registration (which
# would change GRAPHS replies mid-run).
MEDIUM = {"grid": ("grid100x100", 10000), "circ": ("circulant5000c1c2c5c11", 5000)}
SMALL = {
    "pet": ("petersen", 10),
    "rook": ("rook", 16),
    "shri": ("shrikhande", 16),
    "dec": ("decalin", 10),
    "hex": ("hexagon", 6),
    "c16": ("cycle16", 16),
    "g4": ("grid4x4", 16),
    "c30": ("cycle30", 30),
    "c48": ("circulant48c1c5", 48),
    "g8": ("grid8x8", 64),
}
# Cost guard: k-WL only on <= 16 vertices, direct GEL only on <= 64.
KWL_OK = [g for g, (_, n) in SMALL.items() if n <= 16]
DIRECT_OK = [g for g, (_, n) in SMALL.items() if n <= 64]
# The graph query-mix's write stream evolves: a grid, so a seeded
# non-edge is easy to pick. No other request reads it.
MUTATED = {"mg1": (40, 40)}
SPARE = ("spare", "cycle40")

# The graph-mode model every workload trains on the small corpus; its
# sources are never written, so its replies are byte-checkable.
CORPUS_MODEL = "TRAIN gm ON pet,rook,shri,dec,hex,c16 WITH 'deg;wl;hom3' TARGET '[1]' MODE GRAPH EPOCHS 30 SEED 3"
VERTEX_RECIPE = "deg;hom3"
FEAT_RECIPE = "deg;wl;hom3"
# On the mutated grids the stable-WL one-hot is as wide as the class
# count (~n once a chord breaks the symmetry) and trips the cell limit;
# two rounds keep it narrow while still reading the colouring cache.
MUT_FEAT_RECIPE = "deg;wl@2;hom3"

# ---------------------------------------------------------------- queries

# MPNN shapes, each in alpha-variant spellings: the plan cache keys on the
# canonical form, so every spelling of a shape shares one entry. All are
# sum-only, so they take the layered plan: a max / mean aggregation falls
# back to the direct evaluator, whose n^2 assignment table on a medium
# graph exhausts memory (no cell guard covers bound variables yet).
MPNN_SHAPES = [
    ["agg_sum{x2}([1] | E(x1,x2))", "agg_sum{x3}([1] | E(x1,x3))", "agg_sum{x5}([1] | E(x1,x5))"],
    [
        "agg_sum{x2}(agg_sum{x1}([1] | E(x2,x1)) | E(x1,x2))",
        "agg_sum{x3}(agg_sum{x1}([1] | E(x3,x1)) | E(x1,x3))",
    ],
    ["agg_sum{x2}(relu(agg_sum{x1}([1] | E(x2,x1))) | E(x1,x2))", "agg_sum{x4}(relu(agg_sum{x1}([1] | E(x4,x1))) | E(x1,x4))"],
    ["relu(agg_sum{x2}([2] | E(x1,x2)))", "relu(agg_sum{x3}([2] | E(x1,x3)))"],
]
# Direct-evaluator shapes: per-vertex triangles, 2-variable paths, and the
# closed triangle count.
DIRECT_SHAPES = [
    [
        "agg_sum{x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1])",
        "agg_sum{x3,x2}(product(E(x1,x3), product(E(x3,x2), E(x2,x1))) | [1])",
    ],
    ["agg_sum{x3}(product(E(x1,x3), E(x3,x2)) | [1])", "agg_sum{x4}(product(E(x1,x4), E(x4,x2)) | [1])"],
    [
        "scale(0.166667)(agg_sum{x1,x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1]))",
    ],
]


# ---------------------------------------------------------------- mixes

# A kind is (weight, fn(ctx) -> row or list of rows); a row is
# (cls, keys, check, line) with cls L light, H heavy, W write and check
# B byte, S stats, M mutated (see stream.ml).


class Ctx:
    def __init__(self, rng):
        self.rng = rng
        self.decks = {}
        self.mut = Mutations(rng)

    def draw(self, key, items):
        """Items in seeded shuffled passes: each comes up once per pass,
        so the multiset a phase draws is fixed up to the last partial pass
        and only the order depends on the seed."""
        deck = self.decks.get(key)
        if not deck:
            deck = list(items)
            self.rng.shuffle(deck)
            self.decks[key] = deck
        return deck.pop()


def q(graph, src, cmd="QUERY"):
    return "%s %s '%s'" % (cmd, graph, src)


def spellings(shapes):
    return [sp for shape in shapes for sp in shape]


def spare_write(ctx):
    # Add a chord of the spare cycle and delete it in the same batch:
    # a real registry write and cache turnover that leaves GRAPHS
    # replies unchanged. No read ever touches the spare graph.
    u, d = ctx.draw("spare", [(u, d) for u in range(40) for d in (7, 13, 20)])
    v = (u + d) % 40
    return ("W", ["spare"], "M", "MUTATE spare ADD_EDGES %d %d DEL_EDGES %d %d" % (u, v, u, v))


def small_light(ctx):
    g, op = ctx.draw("small", [(g, op) for g in SMALL for op in ("WL", "HOM2", "HOM4", "QUERY")])
    if op == "WL":
        return ("L", [g], "B", "WL %s" % g)
    if op.startswith("HOM"):
        return ("L", [g], "B", "HOM %s %s" % (g, op[3:]))
    return ("L", [g], "B", q(g, ctx.draw("small.q", MPNN_SHAPES[0])))


def medium_query(cmd):
    combos = [(g, sp) for g in MEDIUM for sp in spellings(MPNN_SHAPES)]
    return lambda ctx: ("H", [], "B", q(*ctx.draw("medium." + cmd, combos), cmd=cmd))


def direct_query(ctx):
    g, sp = ctx.draw("direct", [(g, sp) for g in DIRECT_OK for sp in spellings(DIRECT_SHAPES)])
    return ("H", [], "B", q(g, sp))


def never_seen(ctx):
    """A fresh MPNN shape: a constant no pool spelling uses, so its plan
    misses the cache."""
    g = ctx.draw("fresh", list(SMALL))
    return ("L", [], "B", q(g, "agg_sum{x2}([%d] | E(x1,x2))" % ctx.rng.randint(3, 10**6)))


def const(cls, line, check="B"):
    return lambda _ctx: (cls, [], check, line)


class Mutations:
    """Seeded edit batches on the MUTATED grids. Each batch adds four
    chords between non-adjacent vertices and deletes the four the
    previous batch added, so every op applies, the edge count (and with
    it every GRAPHS reply) is fixed once set-up has made the first batch,
    and the graph stays near its original shape."""

    def __init__(self, rng):
        self.rng = rng
        self.added = {g: [] for g in MUTATED}

    def batch(self, g):
        rows, cols = MUTATED[g]
        n = rows * cols
        live = set(self.added[g])
        adds = []
        while len(adds) < 4:
            u, v = sorted((self.rng.randrange(n), self.rng.randrange(n)))
            ru, cu, rv, cv = u // cols, u % cols, v // cols, v % cols
            if abs(ru - rv) + abs(cu - cv) <= 1 or (u, v) in live:
                continue
            live.add((u, v))
            adds.append((u, v))
        ops = "ADD_EDGES " + " ".join("%d %d" % e for e in adds)
        if self.added[g]:
            ops += " DEL_EDGES " + " ".join("%d %d" % e for e in self.added[g])
        self.added[g] = adds
        return "MUTATE %s %s" % (g, ops)


def vertex_model(g):
    return "vm_" + g


def train_line(g):
    return "TRAIN %s ON %s WITH '%s' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 20 SEED 1" % (
        vertex_model(g),
        g,
        VERTEX_RECIPE,
    )


def subset(rng, n):
    return " ".join(str(v) for v in sorted(rng.sample(range(n), 8)))


def mutation_burst(ctx):
    """One write batch and the reads that must observe it, in order, on
    connection 0 (the affinity connection of the mutated graphs). One
    burst in eight refits the graph's model as well."""
    g, retrain = ctx.draw("burst", [(g, i == 0) for g in MUTATED for i in range(8)])
    m = vertex_model(g)
    rows, cols = MUTATED[g]
    burst = [("W", [g], "M", ctx.mut.batch(g))]
    if retrain:
        burst.append(("W", [g, m], "M", train_line(g)))
    burst += [
        ("H", [g], "M", "WL %s" % g),
        ("H", [g], "M", "FEATURIZE %s '%s'" % (g, MUT_FEAT_RECIPE)),
        ("L", [g, m], "M", "PREDICT %s %s %s" % (m, g, subset(ctx.rng, rows * cols))),
        ("H", [g, m], "M", "PREDICT %s %s" % (m, g)),
    ]
    return burst


CORPUS = ["pet", "rook", "shri", "dec", "hex", "c16"]

QUERY_MIX = [
    (3, medium_query("QUERY")),
    (1.5, medium_query("EXPLAIN")),
    (1.5, direct_query),
    (3, never_seen),
    (2, lambda ctx: ("H", [], "B", "WL %s" % ctx.draw("mwl", list(MEDIUM)))),
    (2, lambda ctx: ("H", [], "B", "HOM %s %d" % ctx.draw("mhom", [(g, k) for g in MEDIUM for k in (2, 3, 4, 5)]))),
    (50, small_light),
    (8, lambda ctx: ("L", [], "B", "KWL %s 2" % ctx.draw("kwl", KWL_OK))),
    (6, const("L", "GRAPHS")),
    (12, const("L", "PING")),
    (5, spare_write),
    (1, mutation_burst),
    (2, lambda ctx: ("L", [], "B", "PREDICT gm ON %s" % ",".join(ctx.draw("corpus", [CORPUS[i:i + 3] for i in range(4)])))),
]


ROUTED_LIGHT = [
    (25, const("L", "PING")),
    (20, lambda ctx: ("L", [], "B", "WL %s" % ctx.draw("wl", list(SMALL)))),
    (20, lambda ctx: ("L", [], "B", "HOM %s %d" % ctx.draw("hom", [(g, k) for g in SMALL for k in (2, 3, 4, 5)]))),
    (12, lambda ctx: ("L", [], "B", q("pet", ctx.draw("tri", DIRECT_SHAPES[0])))),
    (10, lambda ctx: ("L", [], "B", "PREDICT vm_pet pet %s" % subset(ctx.rng, 10))),
    (5, const("L", "GRAPHS")),
    (5, const("L", "MODELS")),
    (5, spare_write),
]

# Kinds whose requests the sender holds behind the previous request on
# their key (writes, and reads of a written graph). Under a backlog each
# such hold waits out the whole queue, so they run at round-trip pace,
# not at the daemon's: the capacity phase leaves them out.
KEYED = (spare_write, mutation_burst)

# ---------------------------------------------------------------- workloads

# Topology; nominal rate (rps), low enough that a slow stretch of a
# shared machine does not tip it into queueing; seconds between STATS
# polls at the nominal rate; and the requests of one capacity burst,
# about 0.6 s of the daemon's work, which holds three STATS polls on
# query-mix and two on routed-light.
WORKLOADS = {
    "query-mix": {"router": False, "mix": QUERY_MIX, "rate": 60.0, "stats_s": 3.0, "burst": 500},
    "routed-light": {"router": True, "mix": ROUTED_LIGHT, "rate": 500.0, "stats_s": 2.0, "burst": 1750},
}

# Seconds of the warm and nominal phases at scale 1; `--seconds S`
# scales them by S / MEASURED_S. The nominal phase is cut into ROUNDS
# rounds, each followed by a capacity burst, which keeps its size at
# every scale.
WARM_S = 3.0
NOMINAL_S = 44.0
MEASURED_S = WARM_S + NOMINAL_S
ROUNDS = 8


def setup_lines(w, ctx):
    """LOAD the corpus, TRAIN the models, and warm the caches every
    measured request reads (colourings and plans), closed loop."""
    routed = WORKLOADS[w]["router"]
    graphs = dict(SMALL)
    if not routed:
        graphs.update(MEDIUM)
    lines = ["LOAD %s %s" % (g, spec) for g, (spec, _) in sorted(graphs.items())]
    lines.append("LOAD %s %s" % SPARE)
    lines.append(train_line("pet"))
    if not routed:  # the router refuses a corpus spanning shards
        lines.append(CORPUS_MODEL)
        for g, (r, c) in sorted(MUTATED.items()):
            lines += ["LOAD %s grid%dx%d" % (g, r, c), ctx.mut.batch(g), train_line(g)]
            graphs[g] = None
    lines += ["WL %s" % g for g in sorted(graphs)]
    lines += ["KWL %s 2" % g for g in KWL_OK]
    for shape in MPNN_SHAPES + DIRECT_SHAPES:
        lines.append(q("pet", shape[0]))
    return lines


def stratified(rng, mix, count):
    """`count` kind indices whose multiplicities follow the weights, each
    kind spread evenly through the phase from a seeded offset, so heavy
    requests never bunch up by chance."""
    total = sum(w for w, _ in mix)
    keyed = []
    acc = 0.0
    for i, (w, _) in enumerate(mix):
        before = round(acc)
        acc += w * count / total
        c = round(acc) - before
        u = rng.random()
        keyed += [((j + u) / c, rng.random(), i) for j in range(c)]
    keyed.sort()
    return [i for _, _, i in keyed]


def phase_rows(rng, cfg, mix, ctx, phase, rate, n):
    """Rows of `n` kinds drawn from `mix`, due at `rate`, or all due at
    once when the phase has no rate."""
    rows = []
    queue = []  # expanded requests still to place (bursts expand to several)
    for kind in stratified(rng, mix, n):
        out = mix[kind][1](ctx)
        queue.extend(out if isinstance(out, list) else [out])
    # STATS polls come at a fixed interval, like a monitoring agent's.
    every = int(cfg["stats_s"] * cfg["rate"])
    for i in range(every // 2, len(queue), every):
        queue.insert(i, ("H", [], "S", "STATS"))
    for i, (cls, keys, check, line) in enumerate(queue):
        due_us = int(i * 1e6 / rate) if rate else 0
        # Requests on a written key keep to connection 0, so their order is
        # the stream order; everything else spreads over both.
        conn = 0 if check == "M" else rng.randrange(2)
        rows.append((phase, due_us, conn, cls, ",".join(keys), check, line))
    return rows


def final_rows(w):
    """Closed-loop checks once the daemon is quiesced: the replay must end
    in the same state (the mutated graph's colouring, features and
    predictions, and the registry)."""
    rows = [("final", 0, 0, "L", "", "F", "GRAPHS")]
    if not WORKLOADS[w]["router"]:
        for g in sorted(MUTATED):
            rows.append(("final", 0, 0, "L", g, "F", "WL %s" % g))
            rows.append(("final", 0, 0, "L", g, "F", "FEATURIZE %s '%s'" % (g, MUT_FEAT_RECIPE)))
            rows.append(("final", 0, 0, "L", g, "F", "PREDICT %s %s" % (vertex_model(g), g)))
    return rows


def phases(w, scale=1.0):
    """(phase name, rate, kinds drawn) of the measured phases. "warm" runs
    the nominal rate first and is checked but not timed: the first second
    after set-up pays one-off costs (flat graph views, the first full
    STATS sort) that no later request sees. Then ROUNDS rounds, each a
    "nominal.<k>" phase at the nominal rate and a "capacity.<k>" burst.
    A burst has no rate: the sender keeps a fixed window of requests in
    flight, so the daemon works flat out with bounded batches, and its
    reply rate is the capacity. It draws from the mix without its KEYED
    kinds. Interleaving samples the capacity across the whole run, so a
    slow stretch of a shared machine lands in one or two bursts rather
    than in the only one."""
    cfg = WORKLOADS[w]
    out = [("warm", cfg["rate"], int(cfg["rate"] * WARM_S * scale))]
    per_round = int(cfg["rate"] * NOMINAL_S * scale / ROUNDS)
    for k in range(1, ROUNDS + 1):
        out += [("nominal.%d" % k, cfg["rate"], per_round), ("capacity.%d" % k, None, cfg["burst"])]
    return out


def generate(w, seed, scale=1.0):
    cfg = WORKLOADS[w]
    rng = random.Random("%s/%d" % (w, seed))
    ctx = Ctx(rng)
    rows = [("setup", 0, 0, "W", "", "B", line) for line in setup_lines(w, ctx)]
    for phase, rate, n in phases(w, scale):
        mix = cfg["mix"]
        if phase.startswith("capacity."):
            mix = [k for k in mix if k[1] not in KEYED]
        rows += phase_rows(rng, cfg, mix, ctx, phase, rate, n)
    rows += final_rows(w)
    return rows


def write(path, rows):
    with open(path, "w") as f:
        for r in rows:
            f.write("\t".join(str(x) for x in r) + "\n")
