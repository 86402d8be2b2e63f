import dataclasses
import json
import os
import time

import numpy as np
import pytest

from iterreg import cli, oracles
from iterreg.averaging import averaged_path, weights_sgd_adaptive
from iterreg.cli import main
from iterreg.data_io import read_report
from iterreg.optimizers import make_schedule, save_path, sgd_run
from iterreg.problems import Regularizer, make_rotated_quadratic, toy_problem


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    checks_file = out / "checks.json"
    checks = json.loads(checks_file.read_text()) if checks_file.exists() else None
    return code, out, checks


def written(out):
    """Names of the files a run wrote to its --out directory."""
    return {p.name for p in out.iterdir()}


DEMO2D_FILES = {"demo2d_gd.csv", "demo2d_pgd.csv", "demo2d_ngd.csv",
                "demo2d_gd_scheme.csv", "checks.json"}


def test_demo2d_all_checks_pass(tmp_path):
    code, out, checks = run(tmp_path, "demo2d")
    assert code == 0 and checks["pass"]
    assert written(out) == DEMO2D_FILES
    # Both report formats carry the same columns, bit for bit.
    code, out_json, _ = run(tmp_path / "json", "demo2d", "--format", "json")
    assert code == 0
    assert written(out_json) == {"demo2d_gd.json", "demo2d_pgd.json", "demo2d_ngd.json",
                                 "demo2d_gd_scheme.csv", "checks.json"}
    for name in ("gd", "pgd", "ngd"):
        a = read_report(str(out / f"demo2d_{name}.csv"), "csv")
        b = read_report(str(out_json / f"demo2d_{name}.json"), "json")
        assert (a.iters, a.err_plain, a.err_avg, a.p_cumulative) == \
            (b.iters, b.err_plain, b.err_avg, b.p_cumulative)
        assert b.experiment == f"demo2d-{name}" and len(b.iters) == 501


def test_verify_identity(tmp_path):
    code, out, checks = run(tmp_path, "verify-identity", "--kernel-n", "12")
    assert code == 0
    assert written(out) == DEMO2D_FILES
    names = {c["check"] for c in checks["checks"]}
    assert "verify-identity/kernel" in names


def test_kernel_demo(tmp_path):
    code, out, checks = run(tmp_path, "kernel-demo", "--kernel-n", "15")
    assert code == 0 and checks["pass"]
    assert written(out) == {"kernel_0.5.csv", "kernel_1.0.csv", "kernel_2.0.csv",
                            "checks.json"}


def test_kernel_demo_size_cap(tmp_path):
    code, _, checks = run(tmp_path, "kernel-demo", "--kernel-n", "200")
    assert code == 0 and checks["pass"]
    code, out, _ = run(tmp_path / "big", "kernel-demo", "--kernel-n", "1001")
    assert code == 2 and written(out) == set()


def test_report_clocks_do_not_overlap(tmp_path):
    # Each report times only its own lambda-hat, so the clocks sum to less
    # than the whole call; clocks that keep running from the first report
    # add up to several times the call once there are a few lambda-hats.
    lam_hats = ("0.5", "1.0", "1.5", "2.0", "2.5")
    start = time.perf_counter()
    code, out, _ = run(tmp_path, "kernel-demo", "--kernel-n", "15",
                       "--lam-hats", ",".join(lam_hats), "--format", "json")
    wall = time.perf_counter() - start
    assert code == 0
    assert written(out) == {f"kernel_{lh}.json" for lh in lam_hats} | {"checks.json"}
    clocks = [json.loads((out / f"kernel_{lh}.json").read_text())["wall_clock_s"]
              for lh in lam_hats]
    assert sum(clocks) <= wall


def test_mnist_linear_desk_scale(tmp_path):
    code, out, checks = run(
        tmp_path, "mnist-linear", "--limit", "1100", "--batch", "300",
        "--seed", "3")
    assert code == 0 and checks["pass"]
    assert written(out) == {"mnist_linear_det.csv", "mnist_linear_stoch.csv", "checks.json"}


def test_mnist_linear_from_idx_files(tmp_path):
    from iterreg.data_io import synthetic_mnist, write_idx_images, write_idx_labels

    images, labels = synthetic_mnist(n=1100, seed=1)
    ip, lp = str(tmp_path / "i.idx.gz"), str(tmp_path / "l.idx.gz")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    code, out, checks = run(
        tmp_path, "mnist-linear", "--images", ip, "--labels", lp,
        "--limit", "1100", "--batch", "300", "--deterministic")
    assert code == 0 and checks["pass"]
    assert written(out) == {"mnist_linear_det.csv", "checks.json"}


def test_mnist_logistic(tmp_path):
    # pgd preconditions with Sigma + base_ridge I; a Q without the ridge
    # lets the softmax Hessian exceed it and the run diverges.
    for optimizer in ("gd", "pgd"):
        code, out, checks = run(
            tmp_path / optimizer, "mnist-logistic", "--limit", "300", "--steps", "150",
            "--batch", "100", "--optimizer", optimizer)
        assert code == 0 and checks["pass"]
        assert [c["check"] for c in checks["checks"]] == [
            "mnist-logistic/deterministic-avg-below-plain",
            "mnist-logistic/stochastic-avg-below-plain"]
        assert written(out) == {"mnist_logistic_deterministic.csv",
                                "mnist_logistic_stochastic.csv", "checks.json"}


def test_variance_mc_small(tmp_path):
    code, out, checks = run(tmp_path, "variance-mc", "--mc-seeds", "24")
    assert code == 0 and checks["pass"]
    assert written(out) == {"variance_mc.json", "checks.json"}
    payload = json.loads((out / "variance_mc.json").read_text())
    assert set(payload) == {"sgd", "psgd", "nsgd"}


def test_variance_mc_follows_seed(tmp_path):
    deviations = []
    for seed in ("0", "1"):
        code, out, _ = run(tmp_path / seed, "variance-mc", "--mc-seeds", "1",
                           "--seed", seed)
        assert code == 0 and written(out) == {"variance_mc.json", "checks.json"}
        payload = json.loads((out / "variance_mc.json").read_text())
        deviations.append([payload[k]["max_deviation"] for k in ("sgd", "psgd", "nsgd")])
    assert all(a != b for a, b in zip(*deviations))


def test_sandwich(tmp_path):
    code, out, checks = run(tmp_path, "sandwich")
    assert code == 0 and checks["pass"]
    assert written(out) == {"sandwich.json", "checks.json"}


def test_l1_hull(tmp_path):
    code, out, checks = run(tmp_path, "l1-hull")
    assert code == 0 and checks["pass"]
    assert written(out) == {"l1_hull.json", "checks.json"}
    payload = json.loads((out / "l1_hull.json").read_text())
    assert any(payload["l1_outside"]) and all(payload["l2_inside"])


def test_sweep_reuses_stored_path(tmp_path):
    rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    code, out, checks = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 0 and checks["pass"]
    assert written(out) == {"sweep.json", "checks.json"}
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["optimize_s"] == 0.0 or payload["optimize_s"] < 0.05
    assert len(payload["points"]) == 4
    # At lam = 0.01 the sweep has not converged, and the free certificate shows it.
    first = payload["points"][0]
    assert first["P_K"] < 0.5 and first["certificate"] > 0.1 and first["ridge_gap"] > 0.1


def test_sweep_check_fails_on_corrupted_average(tmp_path, monkeypatch):
    # Blend each average halfway toward its ridge solution: the mixing
    # identity at step K no longer holds where the sweep has not converged.
    seen = {}

    def scheme(etas, lam, steps):
        seen["lam"] = lam
        return weights_sgd_adaptive(etas, lam, steps)

    def blended(path, scheme):
        ridge = oracles.ridge_solution(toy_problem(), Regularizer.l2(seen["lam"])).w_hat
        return 0.5 * (averaged_path(path, scheme) + ridge)

    monkeypatch.setattr(cli, "weights_sgd_adaptive", scheme)
    monkeypatch.setattr(cli, "averaged_path", blended)
    code, _, checks = run(tmp_path, "sweep", "--lambda", "0.01,0.1")
    assert code == 1
    assert [c["pass"] for c in checks["checks"]] == [False, False]


def test_sweep_rejects_truncated_path(tmp_path, capsys):
    rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    stored.write_bytes(stored.read_bytes()[:4000])
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2 and written(out) == set()
    assert str(stored) in capsys.readouterr().err


def test_sweep_rejects_path_without_fingerprint(tmp_path, capsys):
    other = make_rotated_quadratic((0.5, 2.0), 0.3, (-1.0, 2.0))
    rec = sgd_run(other, Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(dataclasses.replace(rec, problem_fingerprint=""), str(stored))
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2 and written(out) == set()
    assert str(stored) in capsys.readouterr().err


def test_sweep_rejects_penalized_path(tmp_path, capsys):
    rec = sgd_run(toy_problem(), Regularizer.l2(0.5), make_schedule(0.1, lam=0.5), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2 and written(out) == set()
    err = capsys.readouterr().err
    assert str(stored) in err and "penalty" in err


def test_unreadable_input_files_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    code, out, _ = run(tmp_path, "sweep", "--path", str(missing))
    assert code == 2 and written(out) == set()
    assert str(missing) in capsys.readouterr().err
    config = tmp_path / "missing.json"
    assert main(["--config", str(config), "demo2d", "--out", str(tmp_path / "c")]) == 2
    assert str(config) in capsys.readouterr().err


def test_divergence_exits_three(tmp_path, capsys):
    code, out, checks = run(tmp_path, "l1-hull", "--eta", "5", "--steps", "100")
    assert code == 3 and checks is None
    assert written(out) == set()
    err = capsys.readouterr().err
    assert err.startswith("diverged: ") and "step 14" in err
    assert err.count("\n") == 1


def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch):
    def fail(args, checks, out_dir):
        raise RuntimeError("x")

    monkeypatch.setitem(cli._COMMANDS, "demo2d", fail)
    code, out, checks = run(tmp_path, "demo2d")
    assert code == 3 and checks is None
    assert capsys.readouterr().err == "numerical failure: x\n"


def test_avg_geometric(tmp_path):
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    prob = toy_problem()
    for i in range(4):
        rec = sgd_run(prob, Regularizer.none(), make_schedule(0.1), 30 + i)
        save_path(rec, str(ckpts / f"c{i:02d}.npz"))
    code, out, checks = run(tmp_path, "avg-geometric", "--checkpoints",
                            str(ckpts), "--p-success", "0.9")
    assert code == 0 and checks["pass"]
    assert written(out) == {"avg_geometric.json", "checks.json"}
    payload = json.loads((out / "avg_geometric.json").read_text())
    assert len(payload["average"]) == 2


def test_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["mnist-linear", "--limit", "1100", "--batch", "300", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert written(out1) == written(out2) == {"mnist_linear_det.csv",
                                              "mnist_linear_stoch.csv", "checks.json"}
    for name in ("mnist_linear_det.csv", "mnist_linear_stoch.csv", "checks.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"version": 1, "args": {"steps": 400, "lambda": [0.2]}}))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "demo2d", "--out", str(out)])
    assert code == 0
    assert written(out) == DEMO2D_FILES
    checks = json.loads((out / "checks.json").read_text())
    assert checks["checks"][0]["params"]["steps"] == 400
    assert checks["checks"][0]["params"]["lam"] == 0.2


def test_invalid_configs_exit_two(tmp_path):
    # rate above the curvature limit, named in the message
    assert main(["sandwich", "--eta", "0.6", "--out", str(tmp_path / "x")]) == 2
    # admissibility window violation
    assert main(["sandwich", "--eta", "0.4", "--gamma", "0.3",
                 "--out", str(tmp_path / "y")]) == 2
    # malformed lambda list
    assert main(["demo2d", "--lambda", "abc", "--out", str(tmp_path / "z")]) == 2
    # unknown subcommand
    assert main(["definitely-not-a-command"]) == 2
    # degenerate scheme at lambda = 0
    assert main(["demo2d", "--lambda", "0", "--out", str(tmp_path / "w")]) == 2
    # kernel scheme needs lam_hat > lam
    assert main(["kernel-demo", "--kernel-n", "8", "--lam-hats", "0",
                 "--out", str(tmp_path / "k")]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["demo2d", "--lambda", "0.1,1.0"], "--lambda"),
    (["verify-identity", "--lam-hats", "1.0,2.0"], "--lam-hats"),
    (["mnist-linear", "--lambda", "1,4", "--limit", "50", "--steps", "20"], "--lambda"),
    (["mnist-logistic", "--lambda", "1,4", "--limit", "50", "--steps", "20"], "--lambda"),
    (["variance-mc", "--lambda", "0.1,0.2", "--mc-seeds", "2", "--steps", "20"], "--lambda"),
])
def test_single_lambda_commands_reject_lists(tmp_path, capsys, argv, flag):
    # These commands run one lambda; a longer list must not be cut to its head.
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert flag in capsys.readouterr().err


def test_images_without_labels_rejected(tmp_path):
    assert main(["mnist-linear", "--images", "only.idx",
                 "--out", str(tmp_path / "o")]) == 2
