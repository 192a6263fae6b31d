#!/usr/bin/env python3
"""End-to-end benchmark of gvnopt (see README.md).

  python3 bench/e2e/run.py [--seed N] [--seconds S] [--json OUT]
      every workload, interleaved round by round, then the traced
      per-layer ledger of each
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      one workload: end-to-end metrics (--trace 0) or the per-layer
      ledger (--trace 1); the last stdout line is the result object
  python3 bench/e2e/run.py --compare A.json B.json
      apply BENCHMARK.json's bounds to two --json run-sets
  python3 bench/e2e/run.py --smoke --gvnopt EXE --harness EXE
      one round at a tiny scale (the @bench-e2e-smoke dune alias)

The load comes from this one process: one gvnopt child, or one client
connection to a --serve child, at a time.
"""
import argparse
import json
import math
import os
import re
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["spec-batch", "serve-zipf", "large-routines", "certify"]
# Deterministic at a fixed seed, so --compare treats any change as real.
EXACT = {"ok_share", "opt_instr_ratio", "dyn_steps_ratio"}
MIN_COVERAGE = 0.95
# calibrate()'s time on an idle 2-vCPU 2.1 GHz VM: end-to-end times are
# reported at that host speed (see README.md, "Host speed").
CAL_REF_S = 0.09
MIN_SERVE_REQUESTS = 2000  # >= 20 requests lie beyond the pooled p99
DEADLINE_S = 150  # no single child may outlive this


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


def run_checked(cmd, **kw):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=DEADLINE_S, **kw)
    if p.returncode != 0:
        raise Failure(f"{Path(cmd[0]).name} {cmd[1] if len(cmd) > 1 else ''} exited {p.returncode}")
    return p.stdout


def build(tmp):
    """Build gvnopt and the harness from the checkout's source, writing
    nothing outside it."""
    if not (ROOT / "dune-project").is_file() or not (ROOT / "bin").is_dir():
        raise Failure(f"{ROOT} is not a source checkout of the repository")
    dune = [shutil.which("dune")] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    tmp.mkdir(parents=True, exist_ok=True)
    p = subprocess.run(dune + ["build", "--root", str(ROOT), "--cache=disabled",
                               "./bin/gvnopt.exe", "./bench/e2e/e2e.exe"],
                       stdout=sys.stderr, env={**os.environ, "TMPDIR": str(tmp)})
    if p.returncode != 0:
        raise Failure("build failed")
    out = ROOT / "_build" / "default"
    return out / "bin" / "gvnopt.exe", out / "bench" / "e2e" / "e2e.exe"


def quantile(xs, q):
    """Nearest-rank quantile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(xs):
    """The highest percentile, up to p99, with at least ten samples beyond
    it (never below the median), and that percentile."""
    q = max(0.5, min(0.99, 1 - 10 / len(xs)))
    return quantile(xs, q), q


def spread(xs):
    """Interquartile distance as a share of the median."""
    if len(xs) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med if med else 0.0


def untimed(text):
    """Mask the validate summary's measured time, the one field of gvnopt's
    text that differs from run to run."""
    return re.sub(rb"\| overhead [0-9.]+s", b"| overhead", text)


def calibrate():
    """Seconds for a fixed loop of dict, list and sort work that shares no
    code with the program under test: a reading of the host's speed."""
    t = time.perf_counter()
    table, acc = {}, 0
    for i in range(60_000):
        row = [i * 31 + k for k in range(8)]
        m = 0
        for x in row:
            m = (x * 17) ^ m
        table[m & 0xffff] = row
        acc += len(table.get((m * 7) & 0xffff, ()))
    sorted((i * 7919) % 100_003 for i in range(100_000))
    return time.perf_counter() - t


def count_routines(src):
    return src.count(b"routine ")


class Child:
    """One gvnopt process, killed if it outlives DEADLINE_S."""

    def __init__(self, cmd, cwd, stdin=None):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(cmd, cwd=cwd, stdin=stdin, stdout=subprocess.PIPE)
        self.timer = threading.Timer(DEADLINE_S, self.p.kill)
        self.timer.start()

    def wait(self):
        """Exit code, wall seconds from spawn, peak RSS in MB."""
        _, status, usage = os.wait4(self.p.pid, 0)
        wall = time.perf_counter() - self.t0
        self.timer.cancel()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.p.stdout.close()
        return self.p.returncode, wall, usage.ru_maxrss / 1024


class Workload:
    def __init__(self, name, root, props):
        self.name, self.dir, self.props = name, root / name, props
        self.argv = (self.dir / "argv").read_text().split()
        self.serve = "--serve" in self.argv
        if self.serve:
            data, self.frames, pos = (self.dir / "requests.bin").read_bytes(), [], 0
            while pos < len(data):
                (n,) = struct.unpack(">I", data[pos:pos + 4])
                self.frames.append(data[pos + 4:pos + 4 + n])
                pos += 4 + n
        else:
            self.inputs = (self.dir / "inputs").read_text().split("\n")[:-1]
        self.warm = (self.dir / "warm.mc").read_bytes()
        self.routines = int(props["routines"])
        self.rounds = 0
        self.attempted = self.failed = 0
        self.first = None  # round 1's output: the reference for later rounds
        self.timed = []  # per timed round: seconds and MB as measured

    def requests(self):
        return sum(len(r["latencies_s"]) for r in self.timed)

    def round(self, gvnopt):
        self.rounds += 1
        self.attempted += self.routines
        self.timed.append((self.serve_round if self.serve else self.batch_round)(gvnopt))

    def batch_round(self, gvnopt):
        warm = Child([str(gvnopt), *self.argv, "warm.mc"], self.dir)
        warm.p.stdout.read()
        code, setup, _ = warm.wait()
        if code != 0:
            raise Failure(f"{self.name}: gvnopt exited {code} on warm.mc")
        child = Child([str(gvnopt), *self.argv, *self.inputs], self.dir)
        out = untimed(child.p.stdout.read())
        code, wall, rss = child.wait()
        if code != 0:
            self.failed += self.routines
        elif self.first is None:
            self.first = out
        elif out != self.first:
            new, old = out.split(b"\n=== "), self.first.split(b"\n=== ")
            self.failed += max(len(new), len(old)) - sum(a == b for a, b in zip(new, old))
        return {"setup_s": setup, "wall_s": wall, "rss_mb": rss, "latencies_s": [wall]}

    def serve_round(self, gvnopt):
        child = Child([str(gvnopt), *self.argv], self.dir, stdin=subprocess.PIPE)
        sin, sout = child.p.stdin, child.p.stdout

        def ask(payload):
            sin.write(struct.pack(">I", len(payload)) + payload)
            sin.flush()
            head = sout.read(4)
            if len(head) < 4:
                return None
            (n,) = struct.unpack(">I", head)
            body = sout.read(n)
            return untimed(body) if len(body) == n else None

        warm = ask(self.warm)
        setup = time.perf_counter() - child.t0
        responses, latencies, t_loop = [], [], time.perf_counter()
        for frame in self.frames:
            t = time.perf_counter()
            r = ask(frame) if warm is not None else None
            latencies.append(time.perf_counter() - t)
            if r is None:
                break
            responses.append(r)
        loop = time.perf_counter() - t_loop
        sin.close()
        code, _, rss = child.wait()
        failed = 0
        for i, frame in enumerate(self.frames):
            r = responses[i] if i < len(responses) else None
            if r is None or r[:1] != b"0" or (self.first and r != self.first[i]):
                failed += count_routines(frame)
        if warm is None or (code != 0 and failed == 0):
            failed = self.routines
        self.failed += failed
        if self.first is None and failed == 0:
            self.first = responses
        return {"setup_s": setup, "wall_s": loop, "rss_mb": rss, "latencies_s": latencies}

    def check(self, harness, seed):
        """The correctness gate over round 1's output."""
        if self.first is None:
            raise Failure(f"{self.name}: no clean round to check")
        out = self.dir / "gvnopt.out"
        if self.serve:
            out.write_bytes(b"".join(struct.pack(">I", len(r)) + r for r in self.first))
        else:
            out.write_bytes(self.first)
        c = json.loads(run_checked([str(harness), "check", f"--workload={self.name}",
                                    f"--dir={self.dir}", f"--output={out}", f"--seed={seed}"]))
        for f in c["failures"]:
            log(f"{self.name}: FAILED {f}")
        # Every later round repeats round 1's text, so its failures too.
        self.failed += c["failed"] * self.rounds
        self.check_result = c

    def e2e(self):
        """Each end-to-end metric as (value, per-round samples), and a note
        on what the latency percentiles pool. Times are divided by their
        round's host slowdown."""
        c, rounds = self.check_result, self.timed
        ms = [[x * 1000 / r["slowdown"] for x in r["latencies_s"]] for r in rounds]
        pooled = [x for r in ms for x in r]
        t, q = tail(pooled)
        median = lambda xs: (statistics.median(xs), xs)
        single = lambda x: (x, [x])
        return {
            "routines_per_s": median([self.routines * r["slowdown"] / r["wall_s"] for r in rounds]),
            "req_p50_ms": (quantile(pooled, 0.5), [quantile(r, 0.5) for r in ms]),
            "req_tail_ms": (t, [tail(r)[0] for r in ms] if self.serve else [t]),
            "setup_s": median([r["setup_s"] / r["slowdown"] for r in rounds]),
            "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
            "ok_share": single(1 - self.failed / self.attempted),
            "opt_instr_ratio": single(c["opt_instr_ratio"]),
            "dyn_steps_ratio": single(c["dyn_steps_ratio"]),
        }, f"over {len(pooled)} requests, tail = p{round(q * 100)}"

    def trace(self, harness, seconds, gvnopt_wall):
        chrome = self.dir / "trace.json"
        t = json.loads(run_checked([str(harness), "trace", f"--workload={self.name}",
                                    f"--dir={self.dir}", f"--seconds={seconds}", f"--chrome={chrome}"]))
        m = t["metrics"]
        m["harness.overhead"] = m["harness.wall_s"] / gvnopt_wall - 1
        required = ["ir.parser", "par.pool.map", "ir.lower", "ssa.construct", "par.ccache.key",
                    "par.ccache.lookup", "pgvn.driver", "ir.printer", "io.stdout"]
        if self.name == "certify":
            required += ["check", "validate", "transform.gcm.plan", "validate.equiv"]
        run_checked([sys.executable, str(ROOT / "tools" / "check_trace.py"), str(chrome), *required],
                    stderr=subprocess.STDOUT)
        if m["harness.coverage"] < MIN_COVERAGE:
            log(f"{self.name}: harness.coverage {m['harness.coverage']:.3f} < {MIN_COVERAGE}")
            self.failed += self.routines
        return m, t["passes"]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workloads, gvnopt, seconds, min_rounds, min_serve_requests):
    """Interleaved rounds: each runs every workload once, in a rotated
    order, so slow drift on a shared host hits every workload alike. The
    host's speed is read before and after every workload round, and the
    round's slowdown is the mean of the two readings over CAL_REF_S.
    Returns every calibration time."""
    for w in workloads:  # a warm-up round fills the page cache and the branch predictors
        w.round(gvnopt)
        w.timed = []
    deadline = time.perf_counter() + seconds * len(workloads)
    r, cal = 0, [calibrate()]
    while (r < min_rounds or time.perf_counter() < deadline
           or any(w.serve and w.requests() < min_serve_requests for w in workloads)):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            w.round(gvnopt)
            cal.append(calibrate())
            w.timed[-1]["slowdown"] = (cal[-2] + cal[-1]) / 2 / CAL_REF_S
        r += 1
    return cal


def print_table(rows):
    for w, name, value, unit, note in rows:
        print(f"{w:<15} {name:<40} {value:>14.6g} {unit:<14} {note}")


def main_run(args):
    work = HERE / "_run"
    shutil.rmtree(work, ignore_errors=True)
    if args.smoke:
        gvnopt, harness = Path(args.gvnopt).resolve(), Path(args.harness).resolve()
    else:
        gvnopt, harness = build(work / "tmp")
    work.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else WORKLOADS
    props = json.loads(run_checked([str(harness), "gen", f"--seed={args.seed}", f"--scale={args.scale}",
                                    f"--workloads={','.join(names)}", f"--out={work}"]))
    workloads = [Workload(n, work, props[n]) for n in names]
    bench = spec()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    traced = args.trace == 1 or args.workload is None
    untraced = args.trace == 0 or args.workload is None
    if untraced:
        cal = measure(workloads, gvnopt, args.seconds, args.min_rounds,
                      0 if args.smoke else MIN_SERVE_REQUESTS)
    else:
        cal = measure(workloads, gvnopt, 0, 3, 0)  # the untraced baseline of harness.overhead
    slowdown = statistics.median(cal) / CAL_REF_S
    for w in workloads:
        w.check(harness, args.seed)

    record = {"seed": args.seed, "host_slowdown": slowdown, "calibration_s": cal, "workloads": {}}
    rows = [("host", "slowdown", slowdown, "ratio",
             f"median calibration time over its {CAL_REF_S} s reference; each round uses its own")]
    for w in workloads:
        rec = record["workloads"][w.name] = {"inputs": w.props}
        for k, v in w.props.items():
            rows.append((w.name, "input." + k, v, "", ""))
        if untraced:
            values, note = w.e2e()
            rec["e2e"] = {}
            for k, (value, samples) in values.items():
                rec["e2e"][k] = {"value": value, "unit": units[k], "samples": samples}
                rows.append((w.name, k, value, units[k], note if k.startswith("req_") else ""))
        rec["rounds"] = w.timed
        if traced:
            seconds = args.seconds if args.workload else args.seconds / 3
            layers, passes = w.trace(harness, seconds, statistics.median(r["wall_s"] for r in w.timed))
            rec["layers"] = {k: {"value": v, "unit": units.get(k, "")} for k, v in layers.items()}
            for k, v in sorted(layers.items()):
                rows.append((w.name, k, v, units.get(k, ""), f"median of {passes} traced passes"))
        rec["attempted"], rec["failed"] = w.attempted, w.failed
    if not args.smoke:
        print_table(rows)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")

    correct = all(w.failed == 0 for w in workloads)
    if args.smoke:
        if not correct:
            raise Failure("smoke: a routine failed the correctness gate or coverage fell short")
        print("smoke: ok")
        return
    if args.workload:
        rec = record["workloads"][args.workload]
        section = "e2e" if args.trace == 0 else "layers"
        wanted = [m["name"] for m in bench["end_to_end" if args.trace == 0 else "per_layer"]]
        metrics = {k: {"value": rec[section][k]["value"], "unit": rec[section][k]["unit"]}
                   for k in wanted}
    else:
        metrics = {f"{w}.{k}": {"value": v["value"], "unit": v["unit"]}
                   for w, rec in record["workloads"].items() for k, v in rec.get("e2e", {}).items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(w.attempted for w in workloads),
                      "failed": sum(w.failed for w in workloads),
                      "metrics": metrics}))


def judge(name, a, b, better, bound):
    """Worse only beyond the bound; a spread wider than the bound leaves
    the pair unresolved, not unchanged, unless every run of B beats every
    run of A."""
    sign = 1 if better == "higher" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0
    if name in EXACT:
        return "same" if mb == ma else ("better" if gain > 0 else "worse")
    if max(spread(a), spread(b)) > bound:
        return "better" if all(sign * y > sign * x for x in a for y in b) else "unresolved"
    return "worse" if gain < -bound else "better" if gain > bound else "same"


def main_compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if a["seed"] != b["seed"]:
        raise Failure(f"the run-sets use different seeds ({a['seed']} and {b['seed']})")
    worse = False
    for w in WORKLOADS:
        if "e2e" not in a["workloads"].get(w, {}) or "e2e" not in b["workloads"].get(w, {}):
            continue
        cells = []
        for m in spec()["end_to_end"]:
            v = judge(m["name"], a["workloads"][w]["e2e"][m["name"]]["samples"],
                      b["workloads"][w]["e2e"][m["name"]]["samples"], m["better"], m["bound"])
            worse |= v == "worse"
            cells.append(f"{m['name']}={v}")
        print(f"{w:<15} " + " ".join(cells))
    sys.exit(1 if worse else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--gvnopt")
    ap.add_argument("--harness")
    args = ap.parse_args()
    args.scale, args.min_rounds = (0.05, 1) if args.smoke else (1.0, 3)
    if args.smoke:
        args.seconds = 0
    try:
        if args.compare:
            main_compare(*args.compare)
        else:
            main_run(args)
    except (Failure, OSError, subprocess.SubprocessError, json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        sys.exit(2)


if __name__ == "__main__":
    main()
