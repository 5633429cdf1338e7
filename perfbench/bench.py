"""The measured run behind run.py: set-up, repetitions, checks and metrics.

Imported by run.py only after the BLAS thread pin is in the environment and
``robustprune`` has been imported (and timed) from the checkout's ``src/``.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
from robustprune import (adversary, checkpoint, config, data, network, pipeline, strategies,
                         tensor as T)

import workloads
from kernels import kernel_table
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5  # set-up samples before the first repetition; one more follows each
PACKAGE = "robustprune"
EVAL_BATCH = 256  # adversary.evaluate's default batch
STAGES = ("pretrain", "prune", "finetune")
MIN_COVERAGE = 0.90


def main(args, blas_threads: int) -> int:
    env = environment(blas_threads)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = Bench(args, workdir).run()
        record["warnings"] = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = env
    record["args"] = vars(args)
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=_jsonable))
    print_report(record, out_path)
    print(json.dumps(record["result"]))
    return 0


def _jsonable(value):
    return value.item() if hasattr(value, "item") else str(value)


class OutOfTime(Exception):
    """The next segment of a repetition would end after the deadline.

    Carries the segment times the repetition had recorded so far.
    """

    def __init__(self, rep: dict):
        super().__init__("deadline")
        self.rep = rep


class NoTrace:
    """Stand-in for the tracer in untraced repetitions."""

    @staticmethod
    def span(name):
        return nullcontext()

    def reset(self) -> None:
        pass

    def table(self) -> None:
        return None


class Bench:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.tree, self.cfg_path = workloads.build_inputs(args.workload, args.seed, workdir,
                                                          tiny=args.tiny)
        self.attempted = 0
        self.failures: list[dict] = []
        self.last_net = None  # the final network of the latest repetition
        self.import_times: list[float] = []
        self.setup_times: list[float] = []

    # -- bookkeeping ---------------------------------------------------------

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"check": name, "detail": detail})

    @contextmanager
    def operation(self, name: str):
        """A program operation; an exception counts as one failure and propagates."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failures.append({"operation": name, "error": repr(exc),
                                  "traceback": traceback.format_exc()})
            raise

    def attempt(self, name: str, fn):
        """Run ``fn`` as an operation; a failure is recorded and yields None."""
        try:
            with self.operation(name):
                return fn()
        except Exception:
            return None

    # -- set-up and one repetition -------------------------------------------

    def setup_sample(self) -> None:
        """One set-up sample: a fresh package import, then config, ingest and build."""
        self.import_times.append(time_import(PACKAGE))
        self.setup_times.append(self.setup_once(NoTrace())[0])

    def setup_once(self, tr):
        t0 = time.perf_counter()
        with tr.span("bench.setup"):
            tree = config.parse_config_file(self.cfg_path)
            cfg = config.config_from_dict(tree)
            train, test = data.ingest(cfg.dataset, cfg.seed)
            network.build_network(cfg.arch, pipeline._input_shape(cfg),
                                  int(cfg.dataset.get("classes", 2)), seed=cfg.seed)
        return time.perf_counter() - t0, cfg, train, test

    def repetition(self, tr, cfg, train, test, fits=None) -> dict:
        """The whole pipeline once; returns per-segment seconds and its outputs.

        ``fits(segment)`` is asked before each timed segment; when it says
        no, the repetition stops with ``OutOfTime`` before starting it.
        """
        clock = time.perf_counter
        rep: dict = {}
        attacks = pipeline.default_eval_attacks(cfg.attack)

        def timed(stage, fn):
            if fits is not None and not fits(stage):
                raise OutOfTime(dict(rep))
            with self.operation(stage), tr.span(f"bench.{stage}"):
                t0 = clock()
                out = fn()
                rep[f"{stage}_s"] = clock() - t0
            return out

        net = timed("pretrain", lambda: pipeline.stage_pretrain(cfg, train))
        net, history = timed("prune", lambda: pipeline.stage_prune(cfg, net, train))
        net = timed("finetune", lambda: pipeline.stage_finetune(cfg, net, train))
        rows = timed("eval", lambda: adversary.evaluate(
            net, test.inputs, test.labels, attacks))
        ckpt_path = self.workdir / "final.npz"

        def round_trip():
            t0 = clock()
            checkpoint.save_checkpoint(ckpt_path, net, "final", cfg.seed, cfg.config_hash())
            rep["checkpoint_save_s"] = clock() - t0
            return checkpoint.load_checkpoint(ckpt_path).build()

        loaded = timed("checkpoint", round_trip)
        rep["checkpoint_bytes"] = ckpt_path.stat().st_size

        with tr.span("bench.check"):
            x = T.Tensor(test.inputs)
            with T.no_grad():
                same = np.array_equal(net.forward(x).values, loaded.forward(x).values)
            self.check("checkpoint logits bit-identical after save/load", same)
            csv_path = self.workdir / "metrics.csv"
            adversary.metrics_to_csv(rows, csv_path)
            rep["metrics_csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            rep["accuracy"] = {r.attack: r.accuracy_pct for r in rows}
            self.check("eval rows are natural + one per attack, accuracies in [0, 100]",
                       [r.attack for r in rows] == ["natural"] + [a for a, _ in attacks]
                       and all(0.0 <= r.accuracy_pct <= 100.0 for r in rows), rep["accuracy"])
            preserved, _ = network.count_preserved(net)
            cur, _ = network.flops(net)
            full, _ = network.flops(net, [np.ones(l.spec.weight_shape) for l in net.layers])
            rep["param_rate"] = preserved / net.total_params
            rep["flops_rate"] = cur / full
            rep["prune_final_rate"] = history.final_rate
            budget_rate = rep["flops_rate"] if cfg.compression.budget == "flops" \
                else rep["param_rate"]
            self.check("prune stage's final rate equals the rate of the final network",
                       math.isclose(history.final_rate, budget_rate, rel_tol=1e-12),
                       (history.final_rate, budget_rate))
            rep["budget_ratio"] = budget_rate / cfg.compression.k_t

        def baselines():
            for make in (strategies.uniform_strategy, strategies.erk_strategy,
                         strategies.lamp_strategy):
                strategies.apply_strategy(loaded, make(loaded, cfg.compression.k_t))

        timed("baselines", baselines)
        rep["run_s"] = sum(rep[f"{s}_s"] for s in
                           STAGES + ("eval", "checkpoint", "baselines"))
        self.last_net = net
        return rep

    def repeat(self, tr, cfg, train, test, deadline: float, min_reps: int,
               sample_setup: bool = True, partial: bool = False) -> tuple[list[dict], dict]:
        """Repetitions until the next one would end after ``deadline``.

        Returns the complete repetitions and, with ``partial``, the segment
        times of a last repetition cut short where its next segment would
        have ended after ``deadline`` (else an empty dict). So the run
        measures up to its deadline, not up to the last whole repetition
        that fits. A segment's expected time is its time in the repetition
        before.

        Each repetition starts from an empty span list and a collected heap,
        so garbage left by earlier ones does not slow later ones, and keeps
        its own span table (None when untraced) under ``_table``.
        """
        reps: list[dict] = []

        def fits(segment):
            return time.perf_counter() + reps[-1][f"{segment}_s"] * 1.1 <= deadline

        while len(reps) < min_reps or \
                time.perf_counter() + max(r["run_s"] for r in reps) * 1.1 <= deadline \
                or partial:
            tr.reset()
            gc.collect()
            try:
                rep = self.repetition(tr, cfg, train, test,
                                      fits if partial and len(reps) >= min_reps else None)
            except OutOfTime as stop:
                return reps, stop.rep
            except Exception:
                break  # recorded by operation(); a deterministic failure would repeat
            rep["_table"] = tr.table()
            reps.append(rep)
            if sample_setup:
                self.setup_sample()  # spread over the run like the repetitions
        return reps, {}

    # -- checks made once per run --------------------------------------------

    def check_eval_constraints(self, cfg, test, net, rows_accuracy) -> None:
        """Rebuild every eval adversarial example and check ball, box and accuracy.

        Uses the program's own ``pgd`` with the evaluation seed and batch, so
        the examples are the ones ``evaluate`` scored; the constraint test and
        the accuracy count are the benchmark's own.
        """
        worst = 0.0
        inside = True
        for name, acfg in pipeline.default_eval_attacks(cfg.attack):
            rng = np.random.default_rng(np.random.SeedSequence(adversary.EVAL_ATTACK_SEED))
            correct = 0
            for i in range(0, len(test), EVAL_BATCH):
                xb, yb = test.inputs[i:i + EVAL_BATCH], test.labels[i:i + EVAL_BATCH]
                x_adv = adversary.pgd(net, xb, yb, acfg, rng)
                lo, hi = acfg.bounds
                dist = float(np.abs(x_adv - xb).max())
                worst = max(worst, dist)
                inside &= dist <= acfg.epsilon and bool(x_adv.min() >= lo and x_adv.max() <= hi)
                with T.no_grad():
                    pred = net.forward(T.Tensor(x_adv)).values.argmax(axis=1)
                correct += int((pred == yb).sum())
            self.check(f"{name} eval examples reproduce the reported accuracy",
                       100.0 * correct / len(test) == rows_accuracy[name],
                       (100.0 * correct / len(test), rows_accuracy[name]))
        self.check("every eval adversarial example inside the epsilon-ball and [0, 1]", inside,
                   {"max_linf": worst, "epsilon": cfg.attack.epsilon})

    # -- the run -------------------------------------------------------------

    def run(self) -> dict:
        args = self.args
        start = time.perf_counter()
        deadline = start + args.seconds
        record: dict = {"workload": args.workload, "seed": args.seed, "config": self.tree}
        try:
            with self.operation("setup"):
                _, cfg, train, test = self.setup_once(NoTrace())
                for _ in range(SETUP_REPS):
                    self.setup_sample()
        except Exception:
            record["checks_failed"] = self.failures
            record["result"] = {"correct": False, "attempted": self.attempted,
                                "failed": len(self.failures), "metrics": {}}
            return record
        record.update({"n_train": len(train), "n_test": len(test)})
        if args.trace:
            untraced, _ = self.repeat(NoTrace(), cfg, train, test, start + args.seconds / 2, 2)
            tracer = Tracer()
            tracer.install()
            try:
                missed = tracer.missed_bindings()
                self.check("tracer rebound every alias of every wrapped function", not missed,
                           missed)
                ingest = []
                for _ in range(SETUP_REPS):
                    tracer.reset()
                    self.setup_once(tracer)
                    ingest.append(tracer.table().total("data.ingest"))
                traced, _ = self.repeat(tracer, cfg, train, test, deadline, 1,
                                        sample_setup=False)
            finally:
                tracer.uninstall()
            tables = [r.pop("_table") for r in traced]
            reps = untraced + traced
        else:
            reps, cut = self.repeat(NoTrace(), cfg, train, test, deadline, 2, partial=True)

        if reps:
            digests = sorted({r["metrics_csv_sha256"] for r in reps})
            self.check("metrics.csv rows byte-identical across repetitions"
                       + (" (untraced and traced)" if args.trace else ""),
                       len(digests) == 1 and len(reps) >= 2, digests)
            record["metrics_csv_sha256"] = digests
            self.attempt("eval constraint check", lambda: self.check_eval_constraints(
                cfg, test, self.last_net, reps[-1]["accuracy"]))
        for r in reps:
            r.pop("_table", None)

        if args.trace:
            record["untraced_reps"], record["traced_reps"] = untraced, traced
            metrics = self.layer_metrics(untraced, traced, tables, ingest)
            record["trace_check"] = self.trace_checks(cfg, len(train), len(test), tables)
            record["kernel_table"] = self.attempt(
                "kernel table", lambda: kernel_table(T, tracer.shapes, args.seed)) or []
            record["shapes"] = {op: [[list(k[0]), v] for k, v in c.most_common()]
                                for op, c in tracer.shapes.items()}
        else:
            record["reps"], record["cut_rep"] = reps, cut
            # the first repetition is a warm-up: it ran up to 60% slower than the
            # rest (cold caches and a growing heap, most likely)
            metrics = self.end_to_end(cfg, len(train), len(test), reps[1:], cut)
        record["import_s"], record["setup_s"] = self.import_times, self.setup_times
        record["checks_failed"] = self.failures
        record["result"] = {"correct": not self.failures, "attempted": self.attempted,
                            "failed": len(self.failures), "metrics": metrics}
        return record

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, cfg, n_train, n_test, reps, cut: dict) -> dict:
        med = lambda key: statistics.median(r[key] for r in reps) if reps else 0.0  # noqa: E731
        epochs = {"pretrain": cfg.pretrain_epochs, "prune": cfg.prune_epochs,
                  "finetune": cfg.finetune_epochs}
        acc = reps[-1]["accuracy"] if reps else {}
        m = {
            "setup_s": (statistics.median(self.import_times)
                        + statistics.median(self.setup_times), "s"),
            "run_s": (med("run_s"), "s"),
        }
        # Throughput is work over time summed across repetitions, and the
        # segments the cut-short last one finished: on a shared machine whose
        # speed shifts during a run, the median of per-repetition rates jumps
        # between the fast and slow phases; the sum averages them.
        def rate(work, key):
            times = [r[key] for r in reps] + ([cut[key]] if key in cut else [])
            return len(times) * work / sum(times) if times else 0.0

        for stage in STAGES:
            m[f"{stage}_sps"] = (rate(n_train * epochs[stage], f"{stage}_s"), "samples/s")
        m["eval_sps"] = (rate(n_test, "eval_s"), "examples/s")
        m["robust_acc_pct"] = (acc.get("pgd", 0.0), "%")
        m["natural_acc_pct"] = (acc.get("natural", 0.0), "%")
        # 1 + the overshoot max(rate / k_t - 1, 0): never 0, 1.0 when the budget is met
        m["budget_excess_ratio"] = (max(reps[-1]["budget_ratio"], 1.0) if reps else 0.0, "ratio")
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        m["ok_rate"] = ((self.attempted - len(self.failures)) / max(self.attempted, 1), "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def layer_metrics(self, untraced, traced, tables, ingest) -> dict:
        m: dict[str, tuple[float, str]] = {}
        if not tables:
            return {}

        def per_rep(fn):
            return statistics.median(fn(tb) for tb in tables)

        for op in ("conv2d", "max_pool2d", "matmul"):
            m[f"tensor.{op}.fwd_ms"] = (per_rep(lambda tb: tb.mean_ms(f"tensor.{op}")), "ms")
            m[f"tensor.{op}.bwd_ms"] = (per_rep(lambda tb: tb.mean_ms(f"tensor.{op}.bwd")), "ms")
        m["tensor.kl_divergence.bwd_ms"] = (
            per_rep(lambda tb: tb.mean_ms("tensor.kl_divergence.bwd")), "ms")
        m["tensor.backward.s"] = (per_rep(lambda tb: tb.total("tensor.backward")), "s")
        m["tensor.backward.calls"] = (per_rep(lambda tb: tb.count("tensor.backward")), "count")
        for op in ("conv2d", "max_pool2d", "matmul", "mul"):
            m[f"tensor.{op}.calls"] = (per_rep(lambda tb: tb.count(f"tensor.{op}")), "count")
        m["network.forward.calls"] = (per_rep(lambda tb: tb.count("network.forward")), "count")
        m["network.forward.self_s"] = (per_rep(
            lambda tb: tb.self_total("network.forward")
            + tb.total_under("tensor.mul", "network.forward")), "s")
        m["network.flops.calls"] = (per_rep(lambda tb: tb.count("network.flops")), "count")
        m["network.flops.s"] = (per_rep(lambda tb: tb.total("network.flops")), "s")
        m["network.count_preserved.s"] = (
            per_rep(lambda tb: tb.total("network.count_preserved")), "s")
        m["adversary.pgd.s"] = (per_rep(lambda tb: tb.total("adversary.pgd")), "s")
        m["adversary.pgd.calls"] = (per_rep(lambda tb: tb.count("adversary.pgd")), "count")
        m["adversary.pgd.self_s"] = (per_rep(lambda tb: tb.self_total("adversary.pgd")), "s")

        def share(tb, stages):
            wall = sum(tb.total(f"bench.{s}") for s in stages)
            return sum(tb.total("adversary.pgd", s) for s in stages) / wall if wall else 0.0

        m["adversary.pgd.share"] = (per_rep(lambda tb: share(tb, STAGES)), "ratio")
        for stage in STAGES:
            m[f"{stage}.adversary.pgd.share"] = (per_rep(lambda tb: share(tb, (stage,))), "ratio")
        m["adversary.evaluate.s"] = (per_rep(lambda tb: tb.total("adversary.evaluate")), "s")
        m["pruning.build_masks.s"] = (per_rep(lambda tb: tb.total("pruning.build_masks")), "s")
        m["pruning.build_masks.calls"] = (
            per_rep(lambda tb: tb.count("pruning.build_masks")), "count")
        m["pruning.budget_state.s"] = (
            per_rep(lambda tb: tb.total("pruning.budget_state")), "s")
        m["pruning.prune_epoch.self_s"] = (
            per_rep(lambda tb: tb.self_total("pruning.prune_epoch")), "s")
        m["optim.sgd_step.s"] = (per_rep(lambda tb: tb.total("optim.sgd_step")), "s")
        m["optim.sgd_step.calls"] = (per_rep(lambda tb: tb.count("optim.sgd_step")), "count")
        m["data.ingest.s"] = (statistics.median(ingest), "s")
        m["data.batches.wait_s"] = (per_rep(lambda tb: tb.total("data.batches.next")), "s")
        m["checkpoint.save.s"] = (per_rep(lambda tb: tb.total("checkpoint.save_checkpoint")), "s")
        m["checkpoint.load.s"] = (per_rep(
            lambda tb: tb.total("bench.checkpoint") - tb.total("checkpoint.save_checkpoint")), "s")
        m["checkpoint.bytes"] = (statistics.median(r["checkpoint_bytes"] for r in traced), "bytes")
        m["strategies.baselines.s"] = (per_rep(lambda tb: tb.total("bench.baselines")), "s")
        m["trace.uncovered_pct"] = (per_rep(lambda tb: 100 * max(
            uncovered(tb, s) for s in STAGES + ("eval",))), "%")
        m["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                 - statistics.median(r["run_s"] for r in untraced[1:]), "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def trace_checks(self, cfg, n_train, n_test, tables) -> dict:
        """Span counts against counts derived from the config, and stage coverage."""
        expected = expected_counts(cfg, n_train, n_test,
                                   pipeline.default_eval_attacks(cfg.attack))
        out = {"expected": expected, "mismatches": [], "uncovered_share": {}}
        for tb in tables:
            for stage, names in expected.items():
                for name, want in names.items():
                    got = tb.count(name, stage)
                    if got != want:
                        out["mismatches"].append({"stage": stage, "span": name,
                                                  "expected": want, "recorded": got})
        self.check("span counts equal the counts derived from the config",
                   not out["mismatches"], out["mismatches"][:10])
        # summed over the traced repetitions, so one scheduler pause in a
        # stage of a few milliseconds (the smoke-test sizes) does not decide it
        for stage in STAGES + ("eval",):
            gaps = [uncovered_time(tb, stage) for tb in tables]
            wall = sum(w for _, w in gaps)
            share = sum(u for u, _ in gaps) / wall if wall else 1.0
            out["uncovered_share"][stage] = share
            self.check(f"layer spans cover >= {MIN_COVERAGE:.0%} of the {stage} stage",
                       share <= 1 - MIN_COVERAGE, share)
        return out


def time_import(package: str) -> float:
    """Seconds for a fresh ``import package``; the loaded modules are restored after.

    The package's modules leave ``sys.modules`` for the timed import and the
    originals return afterwards, so every caller keeps using one set of
    module objects.
    """
    def own(name):
        return name == package or name.startswith(package + ".")

    saved = {n: m for n, m in sys.modules.items() if own(n)}
    for name in saved:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module(package)
    elapsed = time.perf_counter() - t0
    for name in [n for n in sys.modules if own(n)]:
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed


def uncovered_time(tb, stage: str) -> tuple[float, float]:
    """Seconds of a stage outside every layer span below the stage entry, and its wall time.

    The first is the self time of the benchmark's stage span plus the self
    time of the program function it calls (the orchestration loop itself).
    """
    roots = tb.select(f"bench.{stage}")
    entry = tb.children_of(roots)
    return (float(tb.self_time[roots].sum() + tb.self_time[entry].sum()),
            float(tb.dur[roots].sum()))


def uncovered(tb, stage: str) -> float:
    """Share of a stage's wall time outside every layer span (1.0 if it never ran)."""
    gap, wall = uncovered_time(tb, stage)
    return gap / wall if wall else 1.0


def expected_counts(cfg, n_train: int, n_test: int, attacks) -> dict:
    """Calls each stage must make, derived from the config alone."""
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    iters = cfg.attack.iters
    # PGD-AT: iters attack forwards + 1 training forward. TRADES adds the
    # clean no-grad forward and a second training forward (natural logits).
    forwards = iters + 1 if cfg.loss.kind == "pgd-at" else iters + 3
    backwards = iters + 1  # one per attack iteration plus the training loss
    out = {}
    for stage, epochs in (("pretrain", cfg.pretrain_epochs), ("finetune", cfg.finetune_epochs)):
        steps = epochs * steps_per_epoch
        out[stage] = {"network.forward": steps * forwards, "adversary.pgd": steps,
                      "adversary.robust_loss": steps, "tensor.backward": steps * backwards,
                      "optim.sgd_step": steps, "data.batches.next": epochs * (steps_per_epoch + 1)}
    epochs = cfg.prune_epochs
    steps = epochs * steps_per_epoch
    learned = (cfg.method in ("harp", "scores-only")) + (cfg.method in ("harp", "rates-only"))
    budget_calls = epochs * (steps_per_epoch + 1)  # every batch plus the epoch's end
    flops_budget = cfg.compression.budget == "flops"
    out["prune"] = {"network.forward": steps * forwards, "adversary.pgd": steps,
                    "adversary.robust_loss": steps, "tensor.backward": steps * backwards,
                    "optim.sgd_step": steps * learned, "pruning.prune_epoch": epochs,
                    "pruning.build_masks": 1 + budget_calls,  # +1 in init_pruning_state
                    "pruning.budget_state": budget_calls,
                    "network.flops": 2 * budget_calls if flops_budget else 0,
                    "network.count_preserved": 0 if flops_budget else budget_calls,
                    "data.batches.next": epochs * (steps_per_epoch + 1)}
    batches = math.ceil(n_test / EVAL_BATCH)
    out["eval"] = {"network.forward": batches + sum(batches * (a.iters + 1) for _, a in attacks),
                   "adversary.pgd": batches * len(attacks),
                   "tensor.backward": sum(batches * a.iters for _, a in attacks)}
    return out


def environment(blas_threads: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": blas_threads,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu_model": cpu,
        "git_sha": git_sha(ROOT),
        "loadavg_at_start": os.getloadavg(),
    }


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; the checkout may have no .git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def print_report(record: dict, out_path: Path) -> None:
    res = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"train {record.get('n_train')}  test {record.get('n_test')}")
    env = record["environment"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"blas threads {env['blas_threads_pinned']}, nproc {env['nproc']}, "
          f"load {env['loadavg_at_start'][0]:.2f}, git {env['git_sha'][:12]}")
    for name, mv in res["metrics"].items():
        print(f"  {name:34s} {mv['value']:>14.6g} {mv['unit']}")
    for row in record.get("kernel_table", []):
        print(f"  kernel {row['op']:22s} {str(row['shapes']):44s} fwd {row['fwd_ms']:8.3f} ms"
              f"  bwd {row['bwd_ms']:8.3f} ms  MACs {row['macs_fwd']:>11d}"
              f"  bytes {row['bytes_fwd']:>11d} (computed)")
    for f in record["checks_failed"]:
        print(f"  FAILED: {f.get('check') or f.get('operation')}: "
              f"{f.get('detail', f.get('error'))}")
    print(f"checks: {res['attempted'] - res['failed']}/{res['attempted']} passed; "
          f"record in {out_path}")


