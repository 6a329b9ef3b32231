"""The four workloads of the pipeline benchmark, their inputs and output checks.

Every workload makes its inputs from ``--seed``; the program sees only the
files and arrays made here.  ``--seed 0`` is each workload's default seed
and ``--seed 1`` its holdout seed.

``cli_seed``
    ``python -m ocametrics.cli run`` in a fresh interpreter on the 7x133
    seed fixture (``synthetic_panel`` seed 20260401 at ``--seed 0``, start
    2009-01, as the test fixture).  Start-up and imports dominate, so this
    is the workload that shows import work.
``panel_long``
    In-process ``run_pipeline`` on a 16-country x 600-month synthetic
    panel: the only workload where the per-country chain, the loader and
    the writer all carry weight.  Its symmetry graph is sparse.
``roundtrip``
    The identification round trip of acceptance criterion 1: 6 DGPs
    (p = 1..3 cycling, 10,000 observations) each go through ``simulate``,
    a ``month_range`` calendar, ``fit_var``, ``identify_bq`` and
    ``recovery_report``.  Simulation and calendars dominate.
``group_dense``
    The ``metrics`` layer alone on 100 countries x 600 months of shocks
    drawn here from three block factors and a core factor: blocks 0 and 1
    load on the core, block 2 is a periphery that loads against it.  The
    symmetry graph is dense, the case a real currency area has, and its
    shape does not depend on the seed (one 12-clique and one 6-clique in
    the first 18 countries), so the seed moves no work between
    ``classify_symmetry`` calls.  ``classify_symmetry`` gets the first 18
    countries only (the clique cap): it enumerates all 2^k subsets, which
    takes about 4x longer per extra country, so the cap stays until the
    clique search scales.

Kept in ``BENCHMARK.json``: ``cli_seed`` and ``roundtrip``.  On the 2-core
host they were measured on, identical passes drift by up to 2x within
minutes (CPU time tracks wall time), so the unscaled median of ten runs of
one workload spread by 0.08-0.43 of their median whatever the run length.
The end-to-end times are therefore scaled by a reference job timed beside
each step (``harness.HostSpeed``): an in-process interpreter job for
``roundtrip``, and for ``cli_seed`` a fresh interpreter that imports
numpy, scipy and click, the only reference found to track a CLI pass.
Fewer workloads also leave fewer spreads for such a host to push past a
bound.  The two kept workloads still reach every layer: the CLI child runs
the whole pipeline and ``roundtrip`` runs ``simulate`` and ``months``.
``panel_long`` and ``group_dense`` stay runnable by name for the
per-country chain and the group layer at scale.

Sizes replaced: the 28x241 and 100x600 pipeline sizes cannot finish today.
The clique search enumerates 2^k subsets at any graph density, and the lag
gate refuses roughly one country in ten at T = 600.  ``panel_long`` and
``group_dense`` cover the per-country chain and the 100-country group layer
separately instead.

Seeds: the lag gate's ARCH LM test has the right size (it rejects 4.35% of
2000 i.i.d. normal series at 5%), so a panel with a refused country is the
gate working as documented, not a defect.  ``synthetic_panel`` seeds 1-8 at
16x600 each have a refused country.  The panel pools below were therefore
screened for refusals with ``screen_seeds.py`` before any timing, and are
never changed after seeing timings.  Any refusal still counts as a failure.

Weights: every workload writes its own weights, whole units of 1/10000 per
country that sum to exactly 1 each year.  ``ocametrics simulate
--weights-output`` and the test fixture write round(1/N, 3) shares, which
sum to 0.992 at N = 16 and are refused by ``load_weights``; that defect is
left to its own fix.

``benchmarks/bench_kernels.py`` stays because the README refers to it; the
per-layer metrics ``simulate.simulate_s`` and ``unit_root.adf_s`` supersede
its two numbers.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ocametrics import identification, metrics, months, panel, pipeline, var
from ocametrics.months import Month

# the package re-exports the function simulate under the module's name
simulate = importlib.import_module("ocametrics.simulate")

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "work"
START = Month(2009, 1)
ALPHA = 0.05
CHILD_TIMEOUT_S = 30.0
FLOOR_IMPORTS = "import numpy, scipy.linalg, scipy.special, click"

# Screened admissible synthetic_panel seeds; --seed n uses POOL[n % len(POOL)].
CLI_SEED_POOL = tuple(20260401 + k for k in range(15))
PANEL_LONG_POOL = (9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24)

ROUNDTRIP_DGPS = 6
ROUNDTRIP_OBS = 10_000
GROUP_COUNTRIES = 100
GROUP_MONTHS = 600
CLIQUE_CAP = 18


@dataclass
class Outcome:
    """What one pass produced, before and after its checks."""

    digest: str = ""
    errors: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    rss_mb: float | None = None
    # the child's own wall time, when the pass is one child process
    wall_s: float | None = None
    spans: list[dict] | None = None
    import_s: float | None = None


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def write_weights(path: Path, countries, years, rng: np.random.Generator) -> None:
    """Seeded shares in whole units of 1/10000 that sum to exactly 1 each year."""
    lines = ["year,country,weight"]
    n = len(countries)
    for year in years:
        raw = rng.uniform(1.0, 10.0, size=n)
        units = np.floor(raw / raw.sum() * (10_000 - n)).astype(int) + 1
        units[: 10_000 - units.sum()] += 1
        lines += [f"{year},{c},{u / 10_000:.4f}" for c, u in zip(countries, units)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_kernel_s() -> float:
    """Wall time of a fixed piece of interpreter work that uses no package code:
    compile, call and tally 4000 small functions, 25 at a time so that the
    kernel adds little to the process's peak memory."""
    t0 = time.perf_counter()
    tally: dict[int, int] = {}
    for chunk in range(160):
        source = "\n".join(f"def f{i}(a, b):\n    return [a * k + b for k in range({i % 7 + 3})]"
                           for i in range(25 * chunk, 25 * chunk + 25))
        namespace: dict = {}
        exec(compile(source, "<reference>", "exec"), namespace)
        for name, fn in namespace.items():
            if name.startswith("f"):
                for v in fn(len(name), 1):
                    tally[v % 997] = tally.get(v % 997, 0) + 1
    for i in range(300_000):
        tally[i % 997] = tally.get(i % 997, 0) + i
    return time.perf_counter() - t0


def clique_errors(pairs, groups, members, where: str) -> list[str]:
    """Each group must be a maximal clique of size >= 3 of the symmetric pairs."""
    adj = {c: set() for c in members}
    for (a, b), flag in pairs:
        if flag:
            adj[a].add(b)
            adj[b].add(a)
    errors = []
    for group in groups:
        if len(group) < 3:
            errors.append(f"{where}: group {group} has fewer than 3 members")
        elif any(b not in adj[a] for a, b in itertools.combinations(group, 2)):
            errors.append(f"{where}: group {group} is not a clique")
        elif any(all(c in adj[m] for m in group) for c in members if c not in group):
            errors.append(f"{where}: group {group} is not maximal")
    return errors


class Workload:
    """Inputs made from one seed; passes are checked against the first pass."""

    name: str
    traces_in_child = False
    # nominal time of reference_s(): timed steps are scaled to a host on
    # which the reference job takes this long
    reference_nominal_s = 0.25

    def __init__(self, seed: int):
        self.seed = seed
        self.work_dir = WORK / self.name
        self.first_digest: str | None = None
        self.first_errors: list[str] = []

    def prepare(self) -> None:
        """Untimed step before each pass."""

    def reference_s(self) -> float:
        """Wall time of the reference job that gauges the host's speed."""
        return reference_kernel_s()

    def extra_layers(self, round_no: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer samples a traced round takes beside its spans, and errors."""
        return {}, []

    def _verify(self, outcome: Outcome, what: str, content_errors) -> None:
        """Check the first pass's content; a later pass must match its digest
        and shares its verdict."""
        if self.first_digest is None:
            self.first_digest = outcome.digest
            self.first_errors = content_errors()
        elif outcome.digest != self.first_digest:
            outcome.errors.append(f"{what} differ from the first pass")
            return
        outcome.errors += self.first_errors

    def _fresh_dir(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)


# --------------------------------------------------------------------------
# the two report-bundle workloads
# --------------------------------------------------------------------------

class _Bundle(Workload):
    """Shared by the workloads whose pass writes a report bundle."""

    n_countries: int
    n_months: int
    pool: tuple[int, ...]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data_seed = self.pool[seed % len(self.pool)]
        self.panel_path = self.work_dir / "panel.csv"
        self.weights_path = self.work_dir / "weights.csv"
        self.out = self.work_dir / "out"
        self.countries = tuple(f"C{i:02d}" for i in range(self.n_countries))

    def describe(self) -> str:
        return f"synthetic_panel seed {self.data_seed}, {self.n_countries}x{self.n_months}"

    def setup(self) -> None:
        self._fresh_dir()
        data = simulate.synthetic_panel(self.data_seed, self.n_countries, self.n_months,
                                        start=START)
        self.panel_path.write_text(panel.panel_to_csv(data), encoding="utf-8")
        years = range(START.year, data.dates[-1].year + 1)
        write_weights(self.weights_path, data.countries, years,
                      np.random.default_rng([self.data_seed, 1]))

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def expected_files(self) -> set[str]:
        tables = {"adf.csv", "johansen.csv", "var_summary.csv", "size_speed.csv",
                  "groups.csv", "report.json"}
        for kind in ("supply", "demand"):
            tables |= {f"correlation_{kind}.csv", f"dispersion_{kind}.csv", f"cost_{kind}.csv"}
        return tables | {f"shocks_{c}.csv" for c in self.countries}

    def check(self, outcome: Outcome) -> None:
        if outcome.errors:
            return
        files = set(os.listdir(self.out)) if self.out.is_dir() else set()
        if files != self.expected_files():
            outcome.errors.append(f"bundle files differ: {sorted(files ^ self.expected_files())}")
            return
        raw = (self.out / "report.json").read_bytes()
        outcome.digest = _sha(raw)
        self._verify(outcome, "report.json bytes", lambda: self.report_errors(json.loads(raw)))

    def config(self, threads: int = 1) -> pipeline.PipelineConfig:
        return pipeline.PipelineConfig(panel_path=_rel(self.panel_path),
                                       weights_path=_rel(self.weights_path),
                                       output_dir=_rel(self.out), threads=threads)

    def extra_layers(self, round_no: int) -> tuple[dict[str, float], list[str]]:
        """In-process ``build_report`` at threads=1 and threads=2, untraced, in
        alternating order; both must give the report the passes wrote."""
        data = panel.load_panel(self.panel_path)
        weights = metrics.load_weights(self.weights_path)
        samples, errors = {}, []
        for threads in ((1, 2) if round_no % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            report = pipeline.build_report(data, weights, self.config(threads))
            samples[f"pipeline.build_report_threads{threads}_s"] = time.perf_counter() - t0
            if _sha(pipeline.render_json(report).encode()) != self.first_digest:
                errors.append(f"build_report at threads={threads} differs from report.json")
        return samples, errors

    def report_errors(self, report: dict) -> list[str]:
        errors = []
        if report["metadata"]["panel"]["countries"] != list(self.countries):
            errors.append("report lists other countries than the panel")
        for country, block in report["countries"].items():
            a0 = np.array(block["identification"]["a0"])
            sigma = np.array(block["var"]["sigma"])
            lr = np.array(block["identification"]["long_run"])
            if np.abs(a0 @ a0.T - sigma).max() >= 1e-10 or abs(lr[0, 1]) >= 1e-8:
                errors.append(f"{country}: identification algebra fails")
        for kind, sym in report["group"]["symmetry"].items():
            pairs = [(tuple(key.split("|")), flag) for key, flag in sym["symmetric_pairs"].items()]
            errors += clique_errors(pairs, sym["groups"], self.countries, kind)
        return errors


class CliSeed(_Bundle):
    name = "cli_seed"
    n_countries, n_months, pool = 7, 133, CLI_SEED_POOL
    traces_in_child = True
    reference_nominal_s = 0.6

    def reference_s(self) -> float:
        """Whole-process wall time of a fresh interpreter that imports the
        modules the CLI cannot avoid: work of the same kind as a pass, and
        none of it the package's.  It tracks the host's speed for a pass
        better than an in-process job does."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        code, wall_s, _, err = run_child([sys.executable, "-c", FLOOR_IMPORTS],
                                         self.work_dir / "floor_stderr.txt")
        if code != 0:
            raise RuntimeError(f"reference import failed with {code}: {err[-500:]}")
        return wall_s

    def _args(self) -> list[str]:
        return ["run", "--panel", _rel(self.panel_path), "--weights", _rel(self.weights_path),
                "--output-dir", _rel(self.out)]

    def run(self, traced: bool) -> Outcome:
        """One fresh interpreter; the traced form records spans inside the child."""
        if traced:
            spans_path = self.work_dir / "child_spans.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                   _rel(spans_path)] + self._args()
        else:
            cmd = [sys.executable, "-m", "ocametrics.cli"] + self._args()
        code, wall_s, rss_mb, err = run_child(cmd, self.work_dir / "child_stderr.txt")
        outcome = Outcome(rss_mb=rss_mb, wall_s=wall_s)
        if code != 0:
            outcome.errors.append(f"cli exited with {code}: {err[-500:]}")
        elif traced:
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            outcome.spans, outcome.import_s = child["spans"], child["import_s"]
        return outcome

    def extra_layers(self, round_no: int) -> tuple[dict[str, float], list[str]]:
        samples, errors = super().extra_layers(round_no)
        return {**samples, "cli.import_floor_s": import_floor_s()}, errors


class PanelLong(_Bundle):
    name = "panel_long"
    n_countries, n_months, pool = 16, 600, PANEL_LONG_POOL

    def run(self, traced: bool) -> Outcome:
        pipeline.run_pipeline(self.config())
        return Outcome()



# --------------------------------------------------------------------------
# in-process layer workloads
# --------------------------------------------------------------------------

class Roundtrip(Workload):
    name = "roundtrip"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.base = 1000 + ROUNDTRIP_DGPS * (seed % 100_000)

    def describe(self) -> str:
        return f"random_dgp seeds {self.base}..{self.base + ROUNDTRIP_DGPS - 1}"

    def setup(self) -> None:
        self.dgps = [simulate.random_dgp(seed=self.base + i, p=(i % 3) + 1, n_obs=ROUNDTRIP_OBS)
                     for i in range(ROUNDTRIP_DGPS)]

    def run(self, traced: bool) -> Outcome:
        errors, correlations, chunks = [], [], []
        for dgp in self.dgps:
            diffs = simulate.simulate(dgp).diffs
            dates = months.month_range(Month(2009, 2), diffs.shape[0])
            pair = tuple(panel.TransformedSeries(country="AAA", variable=v, dates=dates,
                                                 values=diffs[:, i].copy())
                         for i, v in enumerate(("activity", "price")))
            model = var.fit_var(pair, p=dgp.p)
            svar = identification.identify_bq(model)
            rec = simulate.recovery_report(dgp, svar)
            errors.append(rec.a0_error_max)
            correlations.append(min(rec.supply_correlation, rec.demand_correlation))
            chunks.append(np.asarray(svar.a0).tobytes())
        return Outcome(digest=_sha(*chunks),
                       stats={"a0_err": statistics.median(errors),
                              "shock_corr": statistics.median(correlations)})

    def check(self, outcome: Outcome) -> None:
        if outcome.errors:
            return
        stats = outcome.stats

        def content_errors():
            errors = []
            if not stats["a0_err"] < 0.05:
                errors.append(f"median a0 error {stats['a0_err']:.4f} >= 0.05")
            if not stats["shock_corr"] > 0.95:
                errors.append(f"median shock corr {stats['shock_corr']:.4f} <= 0.95")
            return errors

        self._verify(outcome, "estimates", content_errors)


class GroupDense(Workload):
    name = "group_dense"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.weights_path = self.work_dir / "weights.csv"

    def describe(self) -> str:
        return f"block-factor shocks seed {self.seed}, {GROUP_COUNTRIES}x{GROUP_MONTHS}"

    def setup(self) -> None:
        self._fresh_dir()
        rng = np.random.default_rng([20260402, self.seed])
        n, t = GROUP_COUNTRIES, GROUP_MONTHS
        block = np.arange(n) % 3
        core = np.where(block < 2, 0.7, -0.7)
        x = (core[:, None] * rng.standard_normal(t) + 0.5 * rng.standard_normal((3, t))[block]
             + rng.standard_normal((n, t)))
        self.countries = tuple(f"C{i:03d}" for i in range(n))
        self.shocks = dict(zip(self.countries, x))
        self.dates = months.month_range(START, t)
        write_weights(self.weights_path, self.countries,
                      range(START.year, self.dates[-1].year + 1), rng)

    def run(self, traced: bool) -> Outcome:
        weights = metrics.load_weights(self.weights_path)
        report = metrics.correlation_matrix(self.shocks, kind="supply")
        capped = metrics.CorrelationReport(
            countries=report.countries[:CLIQUE_CAP], r=report.r[:CLIQUE_CAP, :CLIQUE_CAP],
            p=report.p[:CLIQUE_CAP, :CLIQUE_CAP], n=report.n, shock_kind="supply")
        symmetry = metrics.classify_symmetry(capped, ALPHA)
        dispersion = metrics.dispersion_index(self.shocks, self.dates, weights)
        trend, _ = metrics.hp_filter(dispersion.values, 14400.0)
        change = metrics.trend_change(self.dates, trend, self.dates[0], self.dates[-1])
        costs = [metrics.cost_of_inclusion(self.shocks, self.dates, weights, c).values
                 for c in self.countries]
        self.last = (capped, symmetry, dispersion.values, costs)
        return Outcome(digest=_sha(report.r.tobytes(), report.p.tobytes(),
                                   repr(symmetry.groups).encode(), trend.tobytes(),
                                   repr(change).encode(), *(c.tobytes() for c in costs)))

    def check(self, outcome: Outcome) -> None:
        if outcome.errors:
            return
        capped, symmetry, dispersion, costs = self.last

        def content_errors():
            errors = []
            for i, j in itertools.combinations(range(len(capped.countries)), 2):
                expect = bool(capped.r[i, j] > 0.0 and capped.p[i, j] < ALPHA)
                key = tuple(sorted((capped.countries[i], capped.countries[j])))
                if symmetry.symmetric_pairs[key] != expect:
                    errors.append(f"pair {key} labelled {not expect}")
            errors += clique_errors(symmetry.symmetric_pairs.items(), symmetry.groups,
                                    capped.countries, "supply")
            if not (np.all(np.isfinite(dispersion)) and np.all(dispersion > 0.0)):
                errors.append("dispersion is not finite and positive")
            if not all(np.all(np.isfinite(c)) for c in costs):
                errors.append("a cost series is not finite")
            return errors

        self._verify(outcome, "group results", content_errors)


WORKLOADS = {w.name: w for w in (CliSeed, PanelLong, Roundtrip, GroupDense)}


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(cmd: list[str], stderr_path: Path) -> tuple[int, float | None, float | None, str]:
    """Run to completion through ``launch.py``; return the exit code, the
    command's own wall time and peak RSS in MiB (None if it was killed),
    and its stderr."""
    result_path = stderr_path.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    launcher = [sys.executable, "-I", "-S", str(ROOT / "perfbench" / "launch.py"),
                str(result_path)]
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(launcher + cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
    wall_s = rss_mb = None
    if result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        wall_s, rss_mb = result["wall_s"], result["rss_mb"]
    return code, wall_s, rss_mb, stderr_path.read_text(errors="replace")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def import_floor_s() -> float:
    """Fresh-interpreter import time of the modules the CLI cannot avoid."""
    code = ("import time; t = time.perf_counter(); "
            f"{FLOOR_IMPORTS}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip())
