"""Seeded input generators for the benchmark workloads.

``generate(workload, seed)`` is a pure function: it returns the CLI calls of
one pass of the workload and the text of every input file they read.  The
same seed gives the same calls and files.  Randomness comes from the
standard library's Mersenne Twister, so inputs do not depend on the numpy
version under test.

Each call carries ``expect``: the parameters the checker needs to evaluate
the documented closed forms independently of the program.  Argument tokens
may contain ``{dir}``, which the runner replaces with its scratch directory.
"""

import random
from dataclasses import dataclass, field

from check import closed_form

WORKLOADS = ("oneshot", "sweep_oracle", "grid_batch")

#: Inputs whose failure today is a known defect (ROADMAP item 2): values
#: out of range end in a traceback, and a packet kicked past the grid edge
#: wraps around silently.  They stay in the mix so that ``failed`` shows
#: the defect until it is fixed.
KNOWN_DEFECT_KINDS = frozenset({"oor_bs_t", "oor_width", "wrap_corner"})

#: Composition of one ``oneshot`` pass: 1000 calls in a seeded order.
ONESHOT_MIX = (
    ("simulate", 840),     # valid circuits, port C or D selected
    ("dark", 10),          # balanced splitter, equal kicks: port C is dark
    ("bec", 40),           # bec --check-mzi, the slowest call type
    ("feasibility", 40),
    ("parse_error", 30),   # expected exit 2
    ("alias", 10),         # kick past the aliasing guard, expected exit 3
    ("oor_bs_t", 10),      # bs t > 1, a traceback today
    ("oor_width", 10),     # source width <= 0, a traceback today
    ("wrap_corner", 10),   # mean near 9, kick near 7.9: silently wrapped today
)

SWEEP_ORACLE_CALLS = 2
SWEEP_ORACLE_STEPS = 200
GRID_SWEEP_CALLS, GRID_SWEEP_STEPS = 3, 6
ORACLE_CHECK_CALLS, ORACLE_CHECK_SAMPLES = 3, 80
PROPAGATE_CALLS, PROPAGATE_SUBSTEPS = 4, 400

#: Valid circuits keep both ports at least this bright, so a conditional
#: mean on the grid is not amplified rounding.
MIN_PORT_PROBABILITY = 1e-6


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the checker needs to judge it."""

    kind: str
    argv: tuple
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    # repr round-trips, so the checker sees exactly the value the CLI parses
    return repr(float(x))


def _bright(t, delta, alpha=0.0, width=1.0) -> bool:
    p_c, _, p_d, _ = closed_form(t, delta, alpha, width)
    return min(float(p_c), float(p_d)) >= MIN_PORT_PROBABILITY


def _circuit_lines(c) -> list:
    lines = [f"source width={_num(c['width'])} mean={_num(c['mean'])}",
             f"bs t={_num(c['t'])}"]
    for path, delta in c["kicks"]:
        lines.append(f"kick path={path} delta={_num(delta)}")
    for path, alpha in c["phases"]:
        lines.append(f"phase path={path} alpha={_num(alpha)}")
    lines += ["recombine", f"select port={c['port']}",
              "report moments", "report conservation"]
    return lines


def _valid_circuit(rng, variant: int) -> dict:
    """A circuit the program must run correctly; variant fixes the op count."""
    while True:
        c = {"width": rng.uniform(0.8, 1.2), "mean": rng.uniform(-1.0, 1.0),
             "t": rng.uniform(0.1, 0.95), "port": rng.choice("CD")}
        if variant == 0:
            c["kicks"] = [("B", rng.uniform(-2.0, 2.0))]
        elif variant == 1:
            c["kicks"] = [("A", rng.uniform(-2.0, 2.0)), ("B", rng.uniform(-2.0, 2.0))]
        else:
            c["kicks"] = [("B", rng.uniform(-2.0, 2.0)), ("B", rng.uniform(-2.0, 2.0))]
        c["phases"] = [(rng.choice("AB"), rng.uniform(0.0, 6.283))] if variant != 2 else []
        delta, alpha = _relative(c)
        if _bright(c["t"], delta, alpha, c["width"]):
            return c


def _relative(c):
    """Relative kick and phase of arm B against arm A."""
    kick = {"A": 0.0, "B": 0.0}
    phase = {"A": 0.0, "B": 0.0}
    for path, d in c["kicks"]:
        kick[path] += d
    for path, a in c["phases"]:
        phase[path] += a
    return kick["B"] - kick["A"], phase["B"] - phase["A"]


def _circuit_expect(c) -> dict:
    kick_a = sum(d for p, d in c["kicks"] if p == "A")
    delta, alpha = _relative(c)
    return {"t": c["t"], "delta": delta, "alpha": alpha, "width": c["width"],
            "mean": c["mean"] + kick_a, "port": c["port"]}


_PARSE_MUTATIONS = (
    lambda lines: [l.replace("recombine", "recombin") for l in lines],
    lambda lines: [l.replace("bs t=", "bs t=0.5.") for l in lines],
    lambda lines: [l.split(" delta=")[0] if l.startswith("kick") else l for l in lines],
    lambda lines: [l + " t=0.5" if l.startswith("bs") else l for l in lines],
    lambda lines: [lines[0], "recombine"] + [l for l in lines[1:] if l != "recombine"],
    lambda lines: lines[1:],
)


def _oneshot(rng):
    kinds = [kind for kind, count in ONESHOT_MIX for _ in range(count)]
    rng.shuffle(kinds)
    calls, files = [], {}
    counters = {}
    for kind in kinds:
        k = counters[kind] = counters.get(kind, -1) + 1
        if kind == "bec":
            calls.append(_bec(rng))
            continue
        if kind == "feasibility":
            calls.append(_feasibility(rng))
            continue
        expect = {}
        if kind == "simulate":
            c = _valid_circuit(rng, k % 3)
            expect = _circuit_expect(c)
        elif kind == "dark":
            d = rng.uniform(-2.0, 2.0)
            c = {"width": rng.uniform(0.8, 1.2), "mean": rng.uniform(-1.0, 1.0),
                 "t": 0.5 ** 0.5, "port": "C", "kicks": [("A", d), ("B", d)], "phases": []}
            expect = _circuit_expect(c)
        elif kind == "parse_error":
            c = _valid_circuit(rng, 0)
        elif kind == "alias":
            c = _valid_circuit(rng, 0)
            c["kicks"] = [("B", rng.choice((-1, 1)) * rng.uniform(8.0, 9.5))]
        elif kind == "oor_bs_t":
            c = _valid_circuit(rng, 0)
            c["t"] = rng.uniform(1.05, 2.0)
        elif kind == "oor_width":
            c = _valid_circuit(rng, 0)
            c["width"] = 0.0 if k % 2 == 0 else -rng.uniform(0.1, 1.0)
        elif kind == "wrap_corner":
            c = {"width": 1.0, "mean": rng.uniform(8.5, 9.5), "t": rng.uniform(0.5, 0.95),
                 "port": "C", "kicks": [("B", rng.uniform(7.0, 7.9))], "phases": []}
            expect = _circuit_expect(c)
        lines = _circuit_lines(c)
        if kind == "parse_error":
            lines = _PARSE_MUTATIONS[k % len(_PARSE_MUTATIONS)](lines)
        name = f"{kind}-{k:03d}.qif"
        files[name] = "\n".join(lines) + "\n"
        calls.append(Call(kind, ("simulate", "{dir}/" + name), expect))
    return calls, files


def _bec(rng) -> Call:
    while True:
        t, da, db = rng.uniform(0.1, 0.95), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if _bright(t, db - da):
            break
    argv = ("bec", "--t", _num(t), "--delta-a", _num(da), "--delta-b", _num(db), "--check-mzi")
    return Call("bec", argv, {"t": t, "delta": db - da})


FEASIBILITY_ARGS = (
    ("energy_kev", 1.0, 20.0), ("slit_um", 0.5, 3.0), ("drift_m", 0.5, 2.0),
    ("plate_sep_mm", 0.5, 2.0), ("plate_len_cm", 0.5, 2.0), ("voltage_mv", 0.05, 1.0),
)


def _feasibility(rng) -> Call:
    expect = {name: rng.uniform(lo, hi) for name, lo, hi in FEASIBILITY_ARGS}
    argv = ["feasibility"]
    for name, value in expect.items():
        argv += ["--" + name.replace("_", "-"), _num(value)]
    return Call("feasibility", tuple(argv), expect)


def _sweep(rng, i, backend, steps, t_lo, t_hi, d_lo, d_hi) -> Call:
    t = (rng.uniform(*t_lo), rng.uniform(*t_hi), steps)
    d = (rng.uniform(*d_lo), rng.uniform(*d_hi), steps)
    alpha = rng.uniform(-0.6, 0.6)
    argv = ("sweep", "--t", _num(t[0]), _num(t[1]), str(steps),
            "--delta", _num(d[0]), _num(d[1]), str(steps), "--alpha", _num(alpha),
            "--backend", backend, "--out", f"{{dir}}/sweep-{backend}-{i}.csv")
    return Call(f"sweep_{backend}", argv,
                {"t": t, "delta": d, "alpha": alpha, "out": f"sweep-{backend}-{i}.csv"})


def _sweep_oracle(rng):
    calls = [_sweep(rng, i, "oracle", SWEEP_ORACLE_STEPS,
                    (0.01, 0.1), (0.9, 0.99), (0.01, 0.1), (1.8, 2.2))
             for i in range(SWEEP_ORACLE_CALLS)]
    return calls, {}


def _grid_batch(rng):
    calls = [_sweep(rng, i, "grid", GRID_SWEEP_STEPS,
                    (0.1, 0.3), (0.8, 0.95), (0.1, 0.3), (1.5, 2.0))
             for i in range(GRID_SWEEP_CALLS)]
    for _ in range(ORACLE_CHECK_CALLS):
        seed = rng.randrange(1, 10 ** 6)
        calls.append(Call("oracle_check",
                          ("oracle-check", "--samples", str(ORACLE_CHECK_SAMPLES),
                           "--seed", str(seed)),
                          {"samples": ORACLE_CHECK_SAMPLES, "seed": seed}))
    for _ in range(PROPAGATE_CALLS):
        force, tau = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.5)
        calls.append(Call("propagate",
                          ("propagate", "--force", _num(force), "--tau", _num(tau),
                           "--substeps", str(PROPAGATE_SUBSTEPS)),
                          {"force": force, "tau": tau, "substeps": PROPAGATE_SUBSTEPS}))
    rng.shuffle(calls)
    return calls, {}


def generate(workload: str, seed: int):
    """Calls of one pass of ``workload`` and the input files they read."""
    makers = {"oneshot": _oneshot, "sweep_oracle": _sweep_oracle, "grid_batch": _grid_batch}
    rng = random.Random(f"{workload}:{seed}")
    return makers[workload](rng)
