"""Fast self-check of the benchmark code at tiny sizes (about ten seconds).

    python3 perfbench/selfcheck.py

1. Every workload runs through run.py at tiny size, untraced and traced: it
   must pass its checks with no failed row, report every metric that
   BENCHMARK.json names, and show the per-layer counts the code implies.
2. Every correctness check is shown to fail once, on a perturbed curve,
   file or sampling set.
3. run.py must refuse, with a non-zero exit and no result line, in a
   directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when all of it holds, 1 otherwise.
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-out", "selfcheck")
sys.path.insert(0, HERE)
import checks  # noqa: E402
import workload as wl  # noqa: E402

problems = []


def expect(condition, message):
    if not condition:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def bench(name, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", name,
           "--seed", "42", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs(spec):
    sizes = wl.SIZES["tiny"]
    rls_runs = {"grid299": 2 * len(wl.GRID_CASES["tiny"]) * sizes["grid299"]["runs"],
                "mc-small": 2 * sizes["mc-small"]["runs"], "sampling-sweep": 0}
    for name in wl.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(name, trace)
            expect(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n"
                   f"{proc.stderr}")
            if proc.returncode != 0:
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                   f"{name} trace={trace}: {out['correct']=} {out['failed']=}\n{proc.stderr}")
            metrics = out["metrics"]
            expect(list(metrics) == [m["name"] for m in wanted],
                   f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
                   f"{name} trace={trace}: a metric is unmeasured")
            if trace:
                value = {k: v["value"] for k, v in metrics.items()}
                rows = out["attempted"]
                for key in ("estimators.rls_gain_matrix.calls", "estimators.eig_calls"):
                    expect(value[key] == rls_runs[name],
                           f"{name}: {key} {value[key]} != {rls_runs[name]} RLS runs")
                if name == "grid299":
                    expect(value["sampling.greedy_max_lambda_min.calls"] == rows
                           and value["sampling.greedy_distinct_keys"] == 2,
                           f"grid299: greedy calls/keys {value['sampling.greedy_max_lambda_min.calls']}"
                           f"/{value['sampling.greedy_distinct_keys']}")
                if name == "sampling-sweep":
                    expect(value["sampling.greedy_useful_ratio"] == 1,
                           "sampling-sweep: greedy_useful_ratio != 1")
                    expect(value["io.load_graph_cache.hits"] == rows,
                           "sampling-sweep: one graph cache hit per row expected")


def perturbed(rows, name, **changes):
    """A deep copy of rows with one row's fields replaced."""
    out = copy.deepcopy(rows)
    for i, row in enumerate(out):
        if row.name == name:
            out[i] = dataclasses.replace(row, **changes)
    return out


def expect_failure(workload, rows, needle, label):
    failures = workload.check(rows)
    expect(any(needle in f for f in failures), f"{label}: no failure mentioning {needle!r} "
           f"(got {failures})")


def scaled(values, index, factor):
    out = np.array(values, dtype=float)
    out[index] *= factor
    return out


def check_perturbations(gs):
    made = {}
    for name, cls in wl.WORKLOADS.items():
        out_dir = os.path.join(SCRATCH, name)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        workload = cls(gs, 42, out_dir, "tiny")
        workload.setup()
        rows, _, _, _, failed, failures = wl.run_rounds(workload, 0.0, None)
        failures += workload.check(rows)
        expect(failed == 0 and not failures, f"{name}: unperturbed rows fail: {failures}")
        made[name] = (workload, rows)

    workload, rows = made["grid299"]
    lms = next(r for r in rows if r.config.algorithm == "lms")
    rls = next(r for r in rows if r.config.algorithm == "rls")
    expect_failure(workload, perturbed(rows, lms.name, emp=-lms.emp), "not finite and positive",
                   "negative empirical curve")
    expect_failure(workload, perturbed(rows, lms.name, exact=scaled(lms.exact, 3, np.nan)),
                   "not finite and positive", "NaN in the exact curve")
    expect_failure(workload, perturbed(rows, lms.name, exact=scaled(lms.exact, 0, 1 + 1e-9)),
                   "at t=1", "exact curve off at t=1")
    expect_failure(workload, perturbed(rows, rls.name, exact=scaled(rls.exact, -1, 1 + 1e-9)),
                   "RLS exact tail", "RLS tail off")
    expect_failure(workload, perturbed(rows, lms.name, exact=scaled(lms.exact, -1, 1 + 1e-9)),
                   "LMS exact last point", "LMS last point off")
    shift = 10 * lms.run_tail_means.std(ddof=1) / np.sqrt(lms.run_tail_means.shape[0])
    expect_failure(workload, perturbed(rows, lms.name, run_tail_means=lms.run_tail_means + shift),
                   "tail z-score", "empirical tail shifted by 10 SE")
    expect_failure(workload, perturbed(rows, lms.name, cw_digest="0" * 64), "covariance digest",
                   "wrong noise covariance")
    one_ulp = np.array(lms.emp_db)
    one_ulp[7] = np.nextafter(one_ulp[7], np.inf)
    expect_failure(workload, perturbed(rows, lms.name, emp_db=one_ulp), "CSV column msd_emp_db",
                   "in-memory curve one ulp off the CSV")

    workload, rows = made["mc-small"]
    lms_iid = next(r for r in rows if r.name == "lms_iid")
    rls_iid = next(r for r in rows if r.name == "rls_iid")
    bumped = np.array(lms_iid.mean)
    bumped[10] += 10 * lms_iid.se[10]
    expect_failure(workload, perturbed(rows, "lms_iid", mean=bumped), "iterations outside",
                   "one iteration 10 SE off")
    expect_failure(workload, perturbed(rows, "lms_iid", exact=scaled(lms_iid.exact, 5, 1 + 1e-9)),
                   "differs from the independent curve", "LMS exact curve off mid-transient")
    for algo, iid in (("lms", lms_iid), ("rls", rls_iid)):
        swapped = perturbed(rows, f"{algo}_frozen", mean=iid.mean, se=iid.se,
                            run_tail_means=iid.run_tail_means)
        expect_failure(workload, swapped, f"{algo}_frozen: ",
                       f"{algo} iid runs checked against the frozen-noise expectation")

    workload, rows = made["sampling-sweep"]
    greedy = next(r for r in rows if r.config.sampling_strategy == "greedy")
    rand = next(r for r in rows if r.config.sampling_strategy == "random"
                and (r.config.k, r.config.bandwidth) == (greedy.config.k, greedy.config.bandwidth))
    with open(greedy.manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for label, edit, needle in (
            ("manifest lambda_min off", {"lambda_min": manifest["lambda_min"] * (1 + 1e-9)},
             "manifest lambda_min"),
            ("greedy set replaced by the random one",
             {"sampling_indices": list(rand.indices),
              "lambda_min": checks.lambda_min(workload._cached_basis(greedy.config.k)
                                              [:, :greedy.config.bandwidth], rand.indices)},
             "does not exceed the random set")):
        path = os.path.join(SCRATCH, "edited.manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**manifest, **edit}, fh)
        expect_failure(workload, perturbed(rows, greedy.name, manifest_path=path), needle, label)

    u = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 5)))[0]
    c, s = np.full(12, 0.1), np.arange(1.0, 6.0)
    stepped = checks.lms_second_moment_curve(u, c, s, 0.7, 40)
    for t in (1, 2, 3, 17, 40):
        doubled = checks.lms_second_moment_trace(u, c, s, 0.7, t)
        expect(checks.rel_err(doubled, stepped[t - 1]) <= 1e-12,
               f"doubling and stepping disagree at t={t}")


def check_refusal():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("grid299", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(SCRATCH, exist_ok=True)
    check_runs(spec)
    check_perturbations(wl.import_gspest())
    check_refusal()
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
