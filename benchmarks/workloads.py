"""The three benchmark workloads: their inputs, operations and references.

Every input is drawn from the workload seed by the benchmark itself; demkit
receives only graphs (dem_ladder, past_cap) or CLI arguments (verify_all).
Why each instance is in a workload is written up in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checker
import tracing
from clock import Clock, Interval

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
TRACE_DIR = ROOT / ".bench_build" / "trace"

# verify_all: processes per pass, and the verify seeds that have a committed
# reference CSV; the sweep of a workload seed is taken from that pool.
VERIFY_SWEEP = 4
VERIFY_SEED_POOL = 64
# reference (dem, witness) tables cover workload seeds 0..REF_SEEDS-1; other
# seeds are checked by the independent checker alone
REF_SEEDS = 64

LADDER_MAX_N = 24
LADDER_STRUCTURED = (
    "path:8",
    "cycle:9",
    "book:6",
    "bipartite:4:8",
    "join(path:6|cycle:8)",
    "corona(path:4|complete:4)",
    "hypercube:4",
    "cluster(cycle:6|cycle:4)",
    "cartesian(path:4|cycle:5)",
    "path:24",
    "cycle:24",
    "book:22",
    "cartesian(cycle:4|cycle:6)",
    "cartesian(complete:4|complete:6)",
    "cartesian(book:2|book:4)",
)
# Connected random graphs with a fixed edge count: "sparse" has average
# degree 3, "dense" half of all vertex pairs. For every seed tried, each
# size stays clearly faster or clearly slower than cycle:24, and faster than
# P4 x C5, so the median operation stays cycle:24 and the p90 stays P4 x C5.
# A random graph whose time straddled them would move op_p50_ms or op_p90_ms
# with the seed by the gap between neighbouring instances (10-20 %). For the
# same reason there is no dense n = 24 draw: its solve takes 64-205 ms
# depending on the seed.
LADDER_RANDOM = (
    ("sparse", 8), ("sparse", 12), ("sparse", 14), ("sparse", 23), ("sparse", 24),
    ("dense", 8), ("dense", 10), ("dense", 11), ("dense", 16), ("dense", 17),
)

PAST_CAP_MAX_N = 36
PAST_CAP_STRUCTURED = (
    "cartesian(cycle:5|cycle:6)",
    "cartesian(cycle:6|cycle:6)",
    "cartesian(complete:5|complete:6)",
    "cartesian(cycle:3|cycle:11)",
    "cartesian(path:4|cycle:8)",
    "hypercube:5",
)
TREE_ORDER = 6
TREE_PRODUCT = "cartesian(tree:6|cycle:6)"


def import_demkit():
    """Import demkit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "demkit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no demkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import demkit

    if Path(demkit.__file__).resolve().parent != SRC / "demkit":
        raise SystemExit(f"benchmark: imported demkit from {demkit.__file__}, not {SRC}")
    return demkit


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    seeded: bool  # drawn from the workload seed

    def key(self) -> list:
        return [self.name, self.n, [list(e) for e in self.edges]]


def label(op) -> str:
    """How an operation is named in failure messages."""
    return op.name if isinstance(op, Instance) else f"verify --seed {op}"


def _from_graph(name: str, g, seeded: bool = False) -> Instance:
    return Instance(name, g.n, tuple(g.edges), seeded)


def random_connected_edges(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Uniform connected graph with n vertices and m edges, by rejection."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(100_000):
        edges = tuple(sorted(rng.sample(pairs, m)))
        if checker.is_connected(n, edges):
            return edges
    raise RuntimeError(f"no connected draw with n={n}, m={m}")


def random_tree_edges(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    """Uniform labeled tree on n >= 3 vertices, decoded from a Prufer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return tuple(sorted(edges))


def verify_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DEMKIT_MAX_N", None)  # the solver cap must be the default one
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class PassResult:
    """One pass over a workload's inputs, one interval per operation."""

    intervals: list[Interval]
    outputs: list  # one per operation; a str means the operation raised
    rss_kb: int  # peak resident memory of the processes doing the work
    layers: dict | None = None  # traced passes only, times normalised too
    ledger: dict | None = None
    restored: bool = True

    @property
    def op_seconds(self) -> list[float]:
        return [i.seconds for i in self.intervals]

    @property
    def wall(self) -> float:
        """Normalised seconds of the pass: its operations back to back."""
        return sum(i.seconds for i in self.intervals)

    @property
    def raw_wall(self) -> float:
        return sum(i.raw for i in self.intervals)


class DemWorkload:
    """In-process ``dem_number`` calls on a fixed list of instances."""

    def __init__(self, name: str, max_n: int):
        self.name = name
        self.max_n = max_n
        self.demkit = None
        self._refs: dict[str, tuple] = {}
        self._checked: dict[tuple, str | None] = {}

    def inputs(self, seed: int) -> list[Instance]:
        if self.demkit is None:
            self.demkit = import_demkit()
        demkit = self.demkit
        if self.name == "dem_ladder":
            rng = random.Random(f"dem_ladder/{seed}")
            out = [_from_graph(e, demkit.build(demkit.parse_expr(e))) for e in LADDER_STRUCTURED]
            for density, n in LADDER_RANDOM:
                m = 3 * n // 2 if density == "sparse" else n * (n - 1) // 4
                out.append(Instance(f"random:{density}:{n}", n, random_connected_edges(rng, n, m), True))
            return out
        rng = random.Random(f"past_cap/{seed}")
        out = [_from_graph(e, demkit.build(demkit.parse_expr(e))) for e in PAST_CAP_STRUCTURED]
        tree = demkit.Graph(TREE_ORDER, random_tree_edges(rng, TREE_ORDER))
        cycle = demkit.build(demkit.parse_expr("cycle:6"))
        out.insert(2, _from_graph(TREE_PRODUCT, demkit.cartesian(tree, cycle)[0], True))
        return out

    def input_problems(self, inputs: list[Instance]) -> list[str]:
        return [
            f"{inst.name}: n={inst.n} over the cap {self.max_n} or disconnected"
            for inst in inputs
            if inst.n > self.max_n or not checker.is_connected(inst.n, inst.edges)
        ]

    def input_digest(self, inputs: list[Instance]) -> str:
        return digest([inst.key() for inst in inputs])

    def prepare(self, seed: int, inputs: list[Instance]) -> None:
        """Load the committed ``(dem, witness)`` of every instance that has one."""
        refs = json.loads((REFS / f"{self.name}.json").read_text())
        self._refs = {name: (v, tuple(w)) for name, (v, w) in refs["fixed"].items()}
        seeded = refs["seeded"].get(str(seed), {})
        for inst in inputs:
            if inst.seeded and inst.name in seeded:
                value, witness, edges_digest = seeded[inst.name]
                if edges_digest != digest(inst.key()):
                    raise RuntimeError(f"{inst.name}: seed {seed} drew other inputs than its reference")
                self._refs[inst.name] = (value, tuple(witness))

    def setup_layers(self, seed: int, clock: Clock) -> dict:
        """Per-layer figures of building the inputs once, with tracing on."""
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            with clock.measure() as interval:
                self.inputs(seed)
        finally:
            tracing.uninstall(patches)
        return tracing.scale_times(tracer.metrics(), interval.seconds / interval.elapsed)

    def run_pass(self, ops: list[Instance], clock: Clock, traced: bool = False) -> PassResult:
        demkit = self.demkit
        tracer = tracing.Tracer() if traced else None
        patches = tracing.install(tracer) if traced else []
        intervals, outputs = [], []
        try:
            clock.start()
            for k, inst in enumerate(ops):
                g = demkit.Graph(inst.n, inst.edges)
                try:
                    with clock.measure() as interval:
                        if tracer is None:
                            r = demkit.dem_number(g, max_n=self.max_n)
                        else:
                            tracer.op_id = k
                            with tracer.span(tracing.OP_SPAN, inst.name):
                                r = demkit.dem_number(g, max_n=self.max_n)
                    outputs.append((r.value, tuple(r.witness), r.nodes_explored))
                except Exception as exc:  # an operation that raises has failed
                    outputs.append(f"{type(exc).__name__}: {exc}")
                intervals.append(interval)
        finally:
            tracing.uninstall(patches)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = PassResult(intervals, outputs, rss)
        if traced:
            # spans include the clock's in-interval rounds, so they are
            # scaled by normalised over elapsed time
            result.layers = tracing.scale_times(
                tracer.metrics(), result.wall / sum(i.elapsed for i in intervals)
            )
            result.ledger = tracer.ledger()
            result.restored = tracing.restored(patches)
            tracer.write(TRACE_DIR / f"{self.name}-spans.json")
        return result

    def output_error(self, inst: Instance, output) -> str | None:
        """Compare with the reference, then rerun the independent checker on
        each distinct answer."""
        if isinstance(output, str):
            return f"{inst.name}: raised {output}"
        value, witness, _ = output
        ref = self._refs.get(inst.name)
        if ref is not None and ref != (value, witness):
            return f"{inst.name}: dem {value} witness {list(witness)} differ from the reference {ref}"
        key = (inst.name, value, witness)
        if key not in self._checked:
            self._checked[key] = checker.witness_error(inst.n, inst.edges, value, witness)
        problem = self._checked[key]
        return problem and f"{inst.name}: {problem}"


class VerifyWorkload:
    """``demkit verify --suite all`` as one CLI process per verify seed."""

    name = "verify_all"

    def __init__(self):
        self._expected: dict[int, bytes] = {}

    def inputs(self, seed: int) -> list[int]:
        return [(seed * VERIFY_SWEEP + i) % VERIFY_SEED_POOL for i in range(VERIFY_SWEEP)]

    def input_problems(self, inputs: list[int]) -> list[str]:
        return []

    def input_digest(self, inputs: list[int]) -> str:
        return digest(inputs)

    def prepare(self, seed: int, inputs: list[int]) -> None:
        """Every verify seed of the pool has a committed reference CSV."""

    def setup_layers(self, seed: int, clock: Clock) -> dict:
        return {}  # verify_all parses and builds inside its CLI processes

    def expected_csv(self, verify_seed: int) -> bytes:
        """The byte-exact reference report, rebuilt from the committed rows:
        those every seed shares plus the ones drawn from this seed."""
        if verify_seed not in self._expected:
            header, *fixed = (REFS / "verify_fixed.csv").read_text().splitlines(keepends=True)
            rows = list(fixed)
            for line in (REFS / "verify_seeded.tsv").read_text().splitlines(keepends=True):
                seed, row = line.split("\t", 1)
                if int(seed) == verify_seed:
                    rows.append(row)
            rows.sort(key=lambda row: row.split(",", 1)[0])
            self._expected[verify_seed] = (header + "".join(rows)).encode()
        return self._expected[verify_seed]

    def expected_fails(self) -> set[str]:
        text = (REFS / "verify_fixed.csv").read_text()
        return {line.split(",", 1)[0] for line in text.splitlines() if line.split(",")[3] == "fail"}

    def command(self, verify_seed: int, trace_out: Path | None = None) -> list[str]:
        args = ["verify", "--suite", "all", "--seed", str(verify_seed)]
        if trace_out is None:
            return [sys.executable, "-m", "demkit.cli", *args]
        return [sys.executable, str(HERE / "trace_driver.py"), str(trace_out), *args]

    def run_pass(self, ops: list[int], clock: Clock, traced: bool = False) -> PassResult:
        intervals, outputs, rss = [], [], 0
        env = verify_env()
        clock.start()
        for v in ops:
            with clock.measure(sample=False) as interval:
                proc = subprocess.Popen(
                    self.command(v, TRACE_DIR / f"verify_all-{v}.json" if traced else None),
                    cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
                with proc:
                    out = proc.stdout.read()
                    err = proc.stderr.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
            intervals.append(interval)
            outputs.append((proc.returncode, out, err))
            rss = max(rss, usage.ru_maxrss)
        result = PassResult(intervals, outputs, rss)
        if traced:
            result.layers, result.ledger = {}, {}
            for v, interval in zip(ops, intervals):
                doc = json.loads((TRACE_DIR / f"verify_all-{v}.json").read_text())
                layers = tracing.scale_times(doc["layers"], interval.seconds / interval.elapsed)
                for key, value in layers.items():
                    result.layers[key] = result.layers.get(key, 0) + value
                result.ledger.update({f"seed={v}:{k}": row for k, row in doc["ledger"].items()})
                result.restored = result.restored and doc["restored"]
        return result

    def output_error(self, verify_seed: int, output) -> str | None:
        status, out, err = output
        if status != 1:
            return f"verify --seed {verify_seed} exited {status}, expected 1: {err.decode()[-300:]}"
        fails = {
            line.split(",", 1)[0]
            for line in out.decode().splitlines()[1:]
            if line.count(",") >= 4 and line.split(",")[3] == "fail"
        }
        if fails != self.expected_fails():
            return f"verify --seed {verify_seed}: fail verdicts {sorted(fails)} differ from the deliberate ones"
        if out != self.expected_csv(verify_seed):
            return f"verify --seed {verify_seed}: report differs from the reference CSV"
        return None


WORKLOADS = {
    "verify_all": VerifyWorkload,
    "dem_ladder": lambda: DemWorkload("dem_ladder", LADDER_MAX_N),
    "past_cap": lambda: DemWorkload("past_cap", PAST_CAP_MAX_N),
}
