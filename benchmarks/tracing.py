"""Outside-in tracing of nomhol's layers for the benchmark's traced run.

The tracer wraps public functions of nomhol's modules and rebinds every
module attribute that held the original, including the aliases other nomhol
modules imported by name (``semantics`` imports ``alpha_eq``, ``perm_act``
and ``free_atoms``; ``cli`` imports ``square_check`` and
``translate_derivation``).  Nothing inside nomhol changes.

One span is recorded per *outermost* entry of a traced name: a call made
while a span of the same name is open passes straight through.  A wrapped
module-level function calls itself through a private copy whose globals map
its own name back to that copy, so self-recursion costs no wrapper frame and
the recursion depth at which Python gives up stays the same as untraced.
Spans stay in memory (name, start, end, parent span, CLI call id) and are
written out by `Tracer.write` when the run ends.
"""

from __future__ import annotations

import array
import json
import sys
import time
import types

# (module, attribute, traced name).  Several render_* functions share one
# name, so only the top-level render a CLI command asks for opens a span.
TARGETS = (
    ("sexpr", "parse_one", "sexpr.parse_one"),
    ("frontend", "parse_document", "frontend.parse_document"),
    ("frontend", "render_derivation", "frontend.render"),
    ("frontend", "render_hol", "frontend.render"),
    ("frontend", "render_term", "frontend.render"),
    ("frontend", "render_context", "frontend.render"),
    ("pnl", "alpha_eq", "pnl.alpha_eq"),
    ("pnl", "perm_act", "pnl.perm_act"),
    ("pnl", "free_atoms", "pnl.free_atoms"),
    ("pnl", "check_prop", "pnl.check_prop"),
    ("hol", "alphabeta_eq", "hol.alphabeta_eq"),
    ("hol", "beta_normalize", "hol.beta_normalize"),
    ("hol", "hol_type_of", "hol.hol_type_of"),
    ("hol", "hol_alpha_eq", "hol.hol_alpha_eq"),
    ("capture", "capture_infer", "capture.capture_infer"),
    ("capture", "capture_check", "capture.capture_check"),
    ("capture", "capture_cover", "capture.capture_cover"),
    ("translate", "translate", "translate.translate"),
    ("translate", "translate_derivation", "translate.translate_derivation"),
    ("kernel", "check_pnl", "kernel.check_pnl"),
    ("kernel", "check_hol", "kernel.check_hol"),
    ("kernel", "dedup", "kernel.dedup"),
    ("semantics", "enumerate_ground", "semantics.enumerate_ground"),
    ("semantics", "canonical_ground", "semantics.canonical_ground"),
    ("semantics", "eval_pnl_prop", "semantics.eval_pnl_prop"),
    ("semantics", "HolEvaluator.eval", "semantics.HolEvaluator.eval"),
    ("semantics", "square_check", "semantics.square_check"),
    ("semantics", "ren_eq", "semantics.ren_eq"),
    ("semantics", "canonicalize", "semantics.canonicalize"),
    ("cli", "run_cli", "cli.run_cli"),
)
MODULES = ("sexpr", "frontend", "pnl", "hol", "capture", "translate", "kernel",
           "semantics", "cli")
VERDICTS = ("pnl.alpha_eq", "hol.alphabeta_eq")   # report true_share
POOL = "semantics.enumerate_ground"               # report built/drawn


class Tracer:
    def __init__(self):
        self.names = sorted({name for _, _, name in TARGETS})
        self.index = {name: i for i, name in enumerate(self.names)}
        k = len(self.names)
        self.active = [0] * k
        self.calls = [0] * k
        self.self_ns = [0] * k
        self.true = [0] * k
        self.raised = dict.fromkeys(MODULES, 0)
        self.kib = 0.0
        self.built = 0
        self.drawn = [0]
        self.stack = []            # open spans: [child ns, span id]
        self.spans = {f: array.array("q") for f in
                      ("name", "start", "end", "parent", "call")}
        self.call_id = -1
        self.missing = []          # targets this nomhol version lacks
        self._undo = []            # (owner, attribute, original)
        self._originals = {}       # id(original) -> (original, wrapper)
        drawn = self.drawn

        class Pool(list):
            def __iter__(self):
                for x in list.__iter__(self):
                    drawn[0] += 1
                    yield x
        self._pool = Pool

    # -- installing ---------------------------------------------------------

    def install(self):
        mods = {m: sys.modules[f"nomhol.{m}"] for m in MODULES}
        owners = []
        for mod, attr, name in TARGETS:
            owner = mods[mod]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrapper(fn, self.index[name], mod)
            self._originals[id(fn)] = (fn, wrapper)
            owners.append((owner, leaf, fn, wrapper))
        # rebind the definition and every alias held by a nomhol module
        for mod in [m for n, m in sys.modules.items()
                    if n == "nomhol" or n.startswith("nomhol.")]:
            for attr, value in list(vars(mod).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])
        for owner, leaf, fn, wrapper in owners:
            if isinstance(owner, type):
                self._rebind(owner, leaf, wrapper)
            else:
                wrapper.target = self._self_bound_copy(fn, owner)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _self_bound_copy(fn, module):
        """fn with globals in which its own name means this copy, so its
        recursive calls skip the wrapper; every other name is as installed."""
        g = dict(vars(module))
        copy = types.FunctionType(fn.__code__, g, fn.__name__, fn.__defaults__,
                                  fn.__closure__)
        copy.__kwdefaults__ = fn.__kwdefaults__
        copy.__dict__.update(fn.__dict__)
        g[fn.__name__] = copy
        return copy

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def unbound_aliases(self) -> list:
        """Module attributes still holding an original while installed."""
        out = []
        for n, mod in sys.modules.items():
            if n == "nomhol" or n.startswith("nomhol."):
                for attr, value in vars(mod).items():
                    hit = self._originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        out.append(f"{n}.{attr}")
        return out

    # -- the wrapper ----------------------------------------------------------

    def _wrapper(self, fn, idx: int, module: str):
        tracer = self
        active, calls, self_ns, stack = self.active, self.calls, self.self_ns, self.stack
        spans = self.spans
        s_name, s_start, s_end = spans["name"], spans["start"], spans["end"]
        s_parent, s_call = spans["parent"], spans["call"]
        clock = time.perf_counter_ns
        name = self.names[idx]
        verdict = name in VERDICTS
        pool = name == POOL
        parse = name == "sexpr.parse_one"
        cli_call = name == "cli.run_cli"   # each outermost run_cli is one CLI call

        def wrapper(*args, **kwargs):
            target = wrapper.target
            if active[idx]:
                return target(*args, **kwargs)
            active[idx] = 1
            if cli_call:
                tracer.call_id += 1
            sid = len(s_name)
            s_name.append(idx)
            s_parent.append(stack[-1][1] if stack else -1)
            s_call.append(tracer.call_id)
            s_start.append(0)
            s_end.append(0)
            frame = [0, sid]          # [ns covered by child spans, span id]
            stack.append(frame)
            start = clock()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                tracer.raised[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                active[idx] = 0
                dur = end - start
                calls[idx] += 1
                self_ns[idx] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                s_start[sid] = start
                s_end[sid] = end
            if verdict and result is True:
                tracer.true[idx] += 1
            elif pool:
                result = tracer._counted(result)
            elif parse and args:
                tracer.kib += len(args[0]) / 1024
            return result

        wrapper.target = fn
        return wrapper

    def _counted(self, result):
        """The pool, counting the candidates an evaluator draws from it."""
        if isinstance(result, list):
            self.built += len(result)
            return self._pool(result)

        def counting(items):
            for x in items:
                self.drawn[0] += 1
                self.built += 1
                yield x
        return counting(result)

    # -- results --------------------------------------------------------------

    def metrics(self, passes: int, speed: float) -> dict:
        """Per-layer metrics, each per ladder pass; times are divided by the
        host `speed` relative to the reference speed."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in self.names:
            i = self.index[name]
            put(f"{name}.calls", self.calls[i] / passes, "count")
            put(f"{name}.self_s", self.self_ns[i] / 1e9 / passes / speed, "s")
            if name in VERDICTS:
                put(f"{name}.true_share",
                    self.true[i] / self.calls[i] if self.calls[i] else 0.0, "ratio")
        put("sexpr.parse_one.kib", self.kib / passes, "KiB")
        put(f"{POOL}.built", self.built / passes, "count")
        put(f"{POOL}.drawn", self.drawn[0] / passes, "count")
        put(f"{POOL}.used_share",
            self.drawn[0] / self.built if self.built else 0.0, "ratio")
        for mod in MODULES:
            put(f"{mod}.raised", self.raised[mod] / passes, "count")
        return out

    def write(self, path):
        """Spans as one binary file of int64 columns plus a JSON header."""
        columns = list(self.spans)
        with open(path + ".bin", "wb") as fh:
            for c in columns:
                self.spans[c].tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "columns": columns,
                       "rows": len(self.spans["name"]), "dtype": "int64",
                       "clock": "perf_counter_ns"}, fh)
