"""In-memory layer tracing of topraag, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of each topraag
module and patches every name through which they are looked up: module
globals (so ``cli.build_ball`` and ``verification.build_ball`` are both
covered), class attributes (engine, model and graph methods), and
``Graph.order``.  A wrapped call adds to per-name call counts, inclusive time
and self time (its duration minus the part covered by wrapped callees).
Calls in the coarse layers (cli, verification, complexes, homology) are also
kept as spans: (job, span id, parent span id, name, start, end).  The leaf
layers run hundreds of thousands of calls per pass, so they are aggregated
only, and ``Graph.adjacent`` is counted without timing.  ``restore`` undoes
every patch.
"""

from __future__ import annotations

import importlib
import inspect
import time

perf = time.perf_counter

LAYERS = (
    "graphs",
    "words",
    "models",
    "elements",
    "semidirect",
    "britton",
    "complexes",
    "homology",
    "verification",
    "cli",
)
SPAN_LAYERS = {"cli", "verification", "complexes", "homology"}
# Engine classes report under the layer of the regime they implement,
# inherited Engine methods included.
ENGINE_LAYER = {"AutomorphicEngine": "elements", "SemidirectEngine": "semidirect", "TreeEngine": "britton"}
# Permutation arithmetic, token constructors and SparseMatrix entry access
# are too small to wrap: a wrapper would cost more than the work it times.
# Their time stays in the caller's self time.
SKIP = {
    "models.perm_identity",
    "models.perm_mul",
    "models.perm_inv",
    "models.perm_from_cycles",
    "elements.u_token",
    "elements.gen_token",
}
SKIP_CLASSES = {"Engine", "BaseModel", "SparseMatrix"}
COUNT_ONLY = {"graphs.adjacent"}
# SparseMatrix.mul is only called by the dd = 0 check of ChainComplex.
EXTRA = {("homology", "SparseMatrix", "mul"): "homology.dd_check"}


class Tracer:
    """Call statistics and spans for the topraag layers.

    ``only`` restricts the installed wrappers to the given names, for a
    near-free timer around a few calls of an untraced run.
    """

    def __init__(self, only=None):
        self.only = set(only) if only else None
        self.stats = {}  # name -> [calls, inclusive s, self s, active depth]
        self.counters = {}
        self.spans = []
        self.job = None
        self.balls = []  # (model, graph, probing vertices, vertices, cubes, positive cubes)
        self._stack = []
        self._next_span = 0
        self._patches = []

    # -- wrappers -------------------------------------------------------------
    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def timed(self, fn, name, before=None, after=None):
        st = self._stat(name)
        stack = self._stack
        keep_span = name.partition(".")[0] in SPAN_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            parent = stack[-1][2] if stack else None
            if keep_span:
                sid = tracer._next_span
                tracer._next_span += 1
            else:
                sid = parent
            frame = [perf(), 0.0, sid]
            stack.append(frame)
            st[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                st[0] += 1
                st[2] += dur - frame[1]
                st[3] -= 1
                if not st[3]:
                    st[1] += dur
                if stack:
                    stack[-1][1] += dur
                if keep_span:
                    tracer.spans.append((tracer.job, sid, parent, name, frame[0], end))
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        st = self._stat(name)

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self.counted(fn, name)
        return self.timed(fn, name, *HOOKS.get(name, (None, None)))

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def _wanted(self, name):
        return name not in SKIP and (self.only is None or name in self.only)

    def install(self):
        mods = [importlib.import_module(f"topraag.{layer}") for layer in LAYERS]
        everywhere = [importlib.import_module("topraag")] + mods
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if self._wanted(name):
                        wrapped = self._wrap(obj, name)
                        for m in everywhere:
                            for key, val in list(vars(m).items()):
                                if val is obj:
                                    self._set(m, key, wrapped)
                elif inspect.isclass(obj) and attr not in SKIP_CLASSES:
                    self._install_class(layer, obj)
        for (layer, cls_name, meth), name in EXTRA.items():
            cls = getattr(importlib.import_module(f"topraag.{layer}"), cls_name)
            if self._wanted(name):
                self._set(cls, meth, self._wrap(cls.__dict__[meth], name))
        cli = mods[LAYERS.index("cli")]
        if self._wanted("cli.emit"):
            self._set(cli, "_emit", self._wrap(cli._emit, "cli.emit"))
        if self._wanted("cli.config_load"):
            for attr in ("graph_from_json", "model_from_json"):
                self._set(cli, attr, self._wrap(getattr(cli, attr), "cli.config_load"))
        graph_cls = importlib.import_module("topraag.graphs").Graph
        if self._wanted("graphs.order"):
            self._set(graph_cls, "order", property(self._wrap(graph_cls.__dict__["order"].fget, "graphs.order")))
        return self

    def _install_class(self, layer, cls):
        layer = ENGINE_LAYER.get(cls.__name__, layer)
        owners = [c for c in cls.__mro__ if c is cls or (cls.__name__ in ENGINE_LAYER and c.__name__ == "Engine")]
        seen = set()
        for owner in owners:
            for attr, fn in vars(owner).items():
                if attr.startswith("_") or attr in seen or not inspect.isfunction(fn):
                    continue
                seen.add(attr)
                name = f"{layer}.{attr}"
                if self._wanted(name):
                    self._set(cls, attr, self._wrap(fn, name))

    # -- results --------------------------------------------------------------
    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(st[2] for name, st in self.stats.items() if name.startswith(prefix))


_MISSING = object()


def _count_letters(tracer, args):
    tracer.add("words.normal_form.letters", len(args[1]))


def _count_snf(tracer, args):
    mat = args[0]
    if isinstance(mat, list):
        rows, cols = len(mat), len(mat[0]) if mat else 0
        nnz = sum(1 for row in mat for v in row if v)
    else:
        rows, cols = mat.nrows, mat.ncols
        nnz = sum(len(r) for r in mat.rows.values())
    tracer.add("homology.snf.nnz", nnz)
    tracer.add("homology.snf.cells", rows * cols)


def _record_ball(tracer, args, ball):
    # Only attributes are read here: calling wrapped methods would count
    # as program work.  bfs_counters() finishes the derivation untraced.
    probing = sum(1 for d in ball.dist if d < ball.radius)
    positive = sum(1 for c in ball.cubes if c.dim > 0)
    tracer.balls.append((ball.model, ball.graph, probing, ball.n_vertices, len(ball.cubes), positive))


HOOKS = {
    "words.normal_form": (_count_letters, None),
    "homology.smith_normal_form": (_count_snf, None),
    "complexes.build_ball": (None, _record_ball),
}


def bfs_counters(balls):
    """Work counters of build_ball derived from its result at the boundary.

    The BFS probes every (transversal rep, generator, sign) neighbour of each
    vertex closer than the radius; the cube attachment tries every left
    transversal rep of phi^|T|(O) for each vertex and nonempty clique T.
    Call with tracing restored: it uses ``left_transversal`` and ``cliques``.
    """
    from topraag.graphs import cliques

    out = {"vertices": 0, "cubes": 0, "positive": 0, "probes": 0, "attempts": 0}
    for model, graph, probing, n_vertices, n_cubes, positive in balls:
        per_vertex = len(graph.vertices) * (len(model.left_transversal(1)) + len(model.left_transversal(0)))
        per_corner = sum(len(model.left_transversal(len(c))) for c in cliques(graph).nonempty())
        out["vertices"] += n_vertices
        out["cubes"] += n_cubes
        out["positive"] += positive
        out["probes"] += probing * per_vertex
        out["attempts"] += n_vertices * per_corner
    return out
