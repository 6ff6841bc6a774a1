"""Spans around the calls into each module's public functions.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces every binding of a target function in every loaded ``qif`` module
namespace (``spinor`` binds ``port_stats`` by ``from ... import``), and
``remove`` puts the originals back.  Spans are kept in flat arrays in
memory and written out once, at the end of the run.
"""

import gzip
import sys
import time
from array import array

TARGETS = (
    ("cli", ("main", "build_parser")),
    ("circuitfile", ("parse", "execute")),
    ("wavepacket", ("default_grid", "gaussian_init", "shift", "to_position",
                    "to_momentum", "norm", "mean_momentum")),
    ("interferometer", ("run_mzi", "split", "apply_kick", "recombine", "port_stats",
                        "conservation_residual")),
    ("analytic", ("closed_form_stats", "stats_grid")),
    ("splitstep", ("apply_impulse", "free_propagate", "kick_fidelity")),
    ("spinor", ("run_protocol", "microwave_pulse", "stern_gerlach")),
    ("feasibility", ("electron_report",)),
)
MODULES = tuple(module for module, _ in TARGETS)
NAMES = tuple(f"{module}.{func}" for module, funcs in TARGETS for func in funcs)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, CLI call."""

    def __init__(self, qif_error):
        self._qif_error = qif_error
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.call_index = -1
        self.errors = dict.fromkeys(MODULES, 0)
        self.dark_ports = 0
        self.substeps = 0
        self._stack = []
        self._restore = []

    def _wrap(self, fid, module, fn):
        stack = self._stack
        clock = time.perf_counter
        is_ports = fn.__name__ == "port_stats"
        is_impulse = fn.__name__ == "apply_impulse"

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.call.append(self.call_index)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except self._qif_error as exc:
                # count an error once, in the module that raised it first,
                # also when a caller re-raises it wrapped in another error
                cause, seen = exc, False
                while cause is not None and not seen:
                    seen = getattr(cause, "_bench_counted", False)
                    cause = cause.__cause__ or cause.__context__
                if not seen:
                    self.errors[module] += 1
                    exc._bench_counted = True
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if is_ports and result.is_dark:
                self.dark_ports += 1
            elif is_impulse:
                pulse = args[1] if len(args) > 1 else kwargs["pulse"]
                self.substeps += pulse.substeps
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every qif namespace that binds it."""
        wrappers = {}
        for fid, name in enumerate(NAMES):
            module, func = name.split(".")
            fn = getattr(sys.modules["qif." + module], func)
            wrappers[id(fn)] = self._wrap(fid, module, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "qif" and not modname.startswith("qif."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, value))

    def remove(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def aggregate(self, scale):
        """Per-name (calls, seconds, self seconds); ``scale(call)`` maps raw time."""
        n = len(NAMES)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        for i, fid in enumerate(self.name_id):
            dur = (self.end[i] - self.start[i]) * scale(self.call[i])
            calls[fid] += 1
            total[fid] += dur
            own[fid] += dur
            parent = self.parent[i]
            if parent >= 0:
                own[self.name_id[parent]] -= dur
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(NAMES)}

    def write(self, path):
        """Write the spans as gzipped CSV: name, start_s, end_s, parent, call."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("name,start_s,end_s,parent,call\n")
            for i, fid in enumerate(self.name_id):
                fh.write(f"{NAMES[fid]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.call[i]}\n")
