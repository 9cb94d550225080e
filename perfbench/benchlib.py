"""Pure helpers of the repository benchmark (run.py): the seed-to-knob
draws, the campaign specs of the generated workloads, the statistics, the
span self-time arithmetic and the paper reference table. Nothing here runs
the simulator, so test_benchlib.py covers it without a build."""

import math
import statistics

# ---------------------------------------------------------------- seeding

_MASK = (1 << 64) - 1


def splitmix64(state):
    """One SplitMix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


class Draws:
    """Integer draws from a seed, identical on every Python version."""

    def __init__(self, seed):
        self._state = seed & _MASK

    def between(self, lo, hi):
        """A draw in [lo, hi], both ends included."""
        self._state, z = splitmix64(self._state)
        return lo + z % (hi - lo + 1)


# serve-sweep: offered loads and kv-store mixes (the workloads' set_knob
# keys). Nominal load is the serving default; overload halves the gap.
SERVE_APPS = ("kv-store", "dispatch", "pipeline")
SERVE_CONFIGS = ["HCC", "Base", "B+M+I"]
SERVE_LOADS = {"nominal": 96, "overload": 48}
KV_MIXES = {"read": 5, "write": 50}
SERVE_WORK = 48
SERVE_REQUESTS = 960
KEYS_RANGE = (64, 192)
JITTER = 4


def serve_knobs(seed):
    """The groups serve-sweep runs and their knob values, drawn from `seed`.

    One `keys` draw serves every kv-store group; each (app, load) pair draws
    its own gap and work jitter, shared by both kv-store mixes, so a config
    or mix comparison differs in nothing else. Returns a list of
    (group, app, {knob: value}).
    """
    d = Draws(seed)
    keys = d.between(*KEYS_RANGE)
    groups = []
    for app in SERVE_APPS:
        for load, gap in SERVE_LOADS.items():
            knobs = {
                "requests": SERVE_REQUESTS,
                "gap": gap + d.between(-JITTER, JITTER),
                "work": SERVE_WORK + d.between(-JITTER, JITTER),
            }
            if app == "kv-store":
                for mix, puts in KV_MIXES.items():
                    groups.append((f"{app}-{load}-{mix}", app,
                                   dict(knobs, keys=keys, puts=puts)))
            else:
                groups.append((f"{app}-{load}", app, knobs))
    return groups


def serve_spec(seed):
    """Campaign spec of serve-sweep: every group under HCC, Base and B+M+I,
    staleness monitor off as in campaigns/serving.json."""
    groups = [{
        "name": name,
        "workloads": [app],
        "configs": SERVE_CONFIGS,
        "machine": {"preset": "intra", "staleness_monitor": False},
        "serve_set": knobs,
    } for name, app, knobs in serve_knobs(seed)]
    return {"name": "serve-sweep", "groups": groups,
            "aggregates": [{"kind": "serving", "group": g["name"]}
                           for g in groups]}


# ------------------------------------------------------------- statistics

def nearest_rank(values, p):
    """The nearest-rank p-th percentile: the ceil(p/100 * n)-th smallest."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p * len(s) / 100))
    return s[rank - 1]


def tail_percentile(n, beyond=10):
    """The highest whole percentile whose nearest rank leaves at least
    `beyond` samples above it, or None when n is too small for any."""
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    while p > 0 and n - math.ceil(p * n / 100) < beyond:
        p -= 1
    return p if p > 0 else None


def tail(samples):
    """(percentile, sample count, value) of the tail that point_tail_ms
    reports: the tail_percentile of the samples, or the maximum when there
    are too few samples for one."""
    p = tail_percentile(len(samples)) or 100
    return p, len(samples), nearest_rank(samples, p)


# ------------------------------------------------------------- host speed

# Host times are reported at one reference host speed: the speed at which
# the runner's reference loop takes REFERENCE_S seconds. A time t measured
# while the loop took r seconds counts as t * (REFERENCE_S / r) ** SPEED_EXPONENT.
# The loop is fixed code outside the simulator, so a change to the simulator
# moves scaled and raw times by the same factor, while a shared host that
# slows both moves the scaled times far less.
REFERENCE_S = 0.004
# When the host slows, the simulator slows more than the loop: the log-log
# slope of a point's host time on the loop's, fitted over 100-200 passes at
# a time on a 4-vCPU Xeon VM, was 1.0-1.6 on serve-sweep and 1.2-2.0 on
# paper-eval, depending on the hour (README.md, "Host speed").
SPEED_EXPONENT = 1.5
# A point is scaled by the median of the reference samples taken up to this
# many points before and after it.
SPEED_WINDOW = 2


def speed_factors(refs, order):
    """Factors that scale one pass's host times to reference speed.

    `order` lists the pass's point indices in the order they ran; `refs`
    are the reference-loop seconds the runner measured before each of them
    and after the last, so there is one more. Returns (a factor per point,
    indexed by point, a factor for the whole pass).
    """
    def factor(samples):
        return (REFERENCE_S / statistics.median(samples)) ** SPEED_EXPONENT

    per_point = [0.0] * len(order)
    for j, i in enumerate(order):
        per_point[i] = factor(refs[max(0, j - SPEED_WINDOW):
                                   j + SPEED_WINDOW + 2])
    return per_point, factor(refs)


# ------------------------------------------------------------------ spans

def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children cover (children may overlap one another).

    `spans` are dicts with "ts" and "dur" (any one unit) on one thread; a
    span's parent is the innermost span that contains it. Returns a list of
    self times in the order of `spans`.
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
    children = {i: [] for i in range(len(spans))}
    stack = []
    for i in order:
        start = spans[i]["ts"]
        end = start + spans[i]["dur"]
        while stack and not (start >= spans[stack[-1]]["ts"] and
                             end <= spans[stack[-1]]["ts"] +
                             spans[stack[-1]]["dur"]):
            stack.pop()
        if stack:
            children[stack[-1]].append(i)
        stack.append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = None
        for c in sorted(children[i], key=lambda c: spans[c]["ts"]):
            a = spans[c]["ts"]
            b = a + spans[c]["dur"]
            if reach is not None and a < reach:
                a = reach
            if b > a:
                covered += b - a
            reach = b if reach is None else max(reach, b)
        out.append(s["dur"] - covered)
    return out


# ---------------------------------------------------------- paper reference

# The paper's stated values as EXPERIMENTS.md records them. They come from
# the authors' SESC simulation model, not from hardware.
PAPER_REFERENCE = [
    # (figure, headline, reference value)
    ("fig9", "Base avg", 1.20),
    ("fig9", "B+M+I avg", 1.02),
    ("fig10", "B+M+I avg", 0.96),
    ("fig11", "EP WB kept", 1.0),
    ("fig11", "EP INV kept", 1.0),
    ("fig11", "IS WB kept", 1.0),
    ("fig11", "IS INV kept", 1.0),
    ("fig11", "CG WB kept", 1.0),
    ("fig11", "CG INV kept", 0.78),
    ("fig11", "Jacobi WB kept", 0.25),
    ("fig11", "Jacobi INV kept", 0.25),
    ("fig12", "Addr+L avg", 1.05),
    ("VII-A", "KiB saved", 102.0),
    ("VII-B", "energy B+M+I/HCC", 1.0),
]


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines() if "," in line]


def _row(text, first):
    for row in _csv_rows(text):
        if row[0] == first:
            return row
    raise ValueError(f"no '{first}' row")


def measured_headlines(aggregates):
    """The measured side of PAPER_REFERENCE, read from the CSV text the agg
    renderers produced ({kind: text}). Returns {(figure, label): value}."""
    fig9 = _row(aggregates["fig9"], "AVERAGE")
    fig11 = {r[0]: r for r in _csv_rows(aggregates["fig11"])}
    got = {
        ("fig9", "Base avg"): float(fig9[2]),
        ("fig9", "B+M+I avg"): float(fig9[5]),
        ("fig10", "B+M+I avg"): float(_row(aggregates["fig10"],
                                           "AVERAGE")[-1]),
        ("fig12", "Addr+L avg"): float(_row(aggregates["fig12"],
                                            "AVERAGE")[-1]),
        ("VII-B", "energy B+M+I/HCC"): float(_row(aggregates["energy"],
                                                  "AVERAGE")[3]),
    }
    for app, name in (("ep", "EP"), ("is", "IS"), ("cg", "CG"),
                      ("jacobi", "Jacobi")):
        got[("fig11", f"{name} WB kept")] = float(fig11[app][3])
        got[("fig11", f"{name} INV kept")] = float(fig11[app][6])
    for line in aggregates["storage"].splitlines():
        if line.startswith("Savings:"):
            got[("VII-A", "KiB saved")] = float(line.split()[1])
            break
    return got


def paper_errors(aggregates):
    """Absolute relative error (%) of each headline against the paper, per
    figure and overall. Returns (rows, per_figure, mean_pct)."""
    got = measured_headlines(aggregates)
    rows = []
    for figure, label, ref in PAPER_REFERENCE:
        value = got[(figure, label)]
        rows.append((figure, label, value, ref,
                     100 * abs(value - ref) / abs(ref)))
    per_figure = {}
    for figure, *_rest, err in rows:
        per_figure.setdefault(figure, []).append(err)
    per_figure = {f: sum(v) / len(v) for f, v in per_figure.items()}
    return rows, per_figure, sum(r[-1] for r in rows) / len(rows)


# ------------------------------------------------------------- provenance

def check_workers(workers, nproc):
    """Refuses a worker count the host cannot run without oversubscribing."""
    if workers < 1 or workers > nproc:
        raise ValueError(
            f"worker count {workers} is outside 1..nproc ({nproc})")
