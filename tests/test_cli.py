import json
import os
import time

import numpy as np
import pytest

from iterreg.cli import main
from iterreg.optimizers import make_schedule, save_path, sgd_run
from iterreg.problems import Regularizer, toy_problem


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    checks_file = out / "checks.json"
    checks = json.loads(checks_file.read_text()) if checks_file.exists() else None
    return code, out, checks


def test_demo2d_all_checks_pass(tmp_path):
    code, out, checks = run(tmp_path, "demo2d")
    assert code == 0 and checks["pass"]
    assert (out / "demo2d_gd.csv").exists()
    assert (out / "demo2d_gd_scheme.csv").exists()


def test_verify_identity(tmp_path):
    code, _, checks = run(tmp_path, "verify-identity", "--kernel-n", "12")
    assert code == 0
    names = {c["check"] for c in checks["checks"]}
    assert "verify-identity/kernel" in names


def test_kernel_demo(tmp_path):
    code, _, checks = run(tmp_path, "kernel-demo", "--kernel-n", "15")
    assert code == 0 and checks["pass"]


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
    clocks = [json.loads((out / f"kernel_{lh}.json").read_text())["wall_clock_s"]
              for lh in lam_hats]
    assert sum(clocks) <= wall


def test_mnist_linear_desk_scale(tmp_path):
    code, out, checks = run(
        tmp_path, "mnist-linear", "--limit", "1100", "--batch", "300",
        "--seed", "3")
    assert code == 0 and checks["pass"]
    assert (out / "mnist_linear_det.csv").exists()
    assert (out / "mnist_linear_stoch.csv").exists()


def test_mnist_linear_from_idx_files(tmp_path):
    from iterreg.data_io import synthetic_mnist, write_idx_images, write_idx_labels

    images, labels = synthetic_mnist(n=1100, seed=1)
    ip, lp = str(tmp_path / "i.idx.gz"), str(tmp_path / "l.idx.gz")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    code, _, checks = run(
        tmp_path, "mnist-linear", "--images", ip, "--labels", lp,
        "--limit", "1100", "--batch", "300", "--deterministic")
    assert code == 0 and checks["pass"]


def test_mnist_logistic(tmp_path):
    code, _, checks = run(
        tmp_path, "mnist-logistic", "--limit", "300", "--steps", "150",
        "--batch", "100")
    assert code == 0 and checks["pass"]


def test_variance_mc_small(tmp_path):
    code, out, checks = run(tmp_path, "variance-mc", "--mc-seeds", "24")
    assert code == 0 and checks["pass"]
    payload = json.loads((out / "variance_mc.json").read_text())
    assert set(payload) == {"sgd", "psgd", "nsgd"}


def test_variance_mc_follows_seed(tmp_path):
    deviations = []
    for seed in ("0", "1"):
        code, out, _ = run(tmp_path / seed, "variance-mc", "--mc-seeds", "1",
                           "--seed", seed)
        assert code == 0
        payload = json.loads((out / "variance_mc.json").read_text())
        deviations.append([payload[k]["max_deviation"] for k in ("sgd", "psgd", "nsgd")])
    assert all(a != b for a, b in zip(*deviations))


def test_sandwich(tmp_path):
    code, _, checks = run(tmp_path, "sandwich")
    assert code == 0 and checks["pass"]


def test_l1_hull(tmp_path):
    code, out, checks = run(tmp_path, "l1-hull")
    assert code == 0 and checks["pass"]
    payload = json.loads((out / "l1_hull.json").read_text())
    assert any(payload["l1_outside"]) and all(payload["l2_inside"])


def test_sweep_reuses_stored_path(tmp_path):
    rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    code, out, checks = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 0 and checks["pass"]
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["optimize_s"] == 0.0 or payload["optimize_s"] < 0.05
    assert len(payload["points"]) == 4


def test_sweep_rejects_truncated_path(tmp_path, capsys):
    rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    stored.write_bytes(stored.read_bytes()[:4000])
    code, _, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2
    assert str(stored) in capsys.readouterr().err


def test_unreadable_input_files_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    code, _, _ = run(tmp_path, "sweep", "--path", str(missing))
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    config = tmp_path / "missing.json"
    assert main(["--config", str(config), "demo2d", "--out", str(tmp_path / "c")]) == 2
    assert str(config) in capsys.readouterr().err


def test_divergence_exits_three(tmp_path, capsys):
    code, _, checks = run(tmp_path, "l1-hull", "--eta", "5", "--steps", "100")
    assert code == 3 and checks is None
    err = capsys.readouterr().err
    assert err.startswith("diverged: ") and "step 14" in err
    assert err.count("\n") == 1


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
    payload = json.loads((out / "avg_geometric.json").read_text())
    assert len(payload["average"]) == 2


def test_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["mnist-linear", "--limit", "1100", "--batch", "300", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("mnist_linear_det.csv", "mnist_linear_stoch.csv", "checks.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"version": 1, "args": {"steps": 400, "lambda": [0.2]}}))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "demo2d", "--out", str(out)])
    assert code == 0
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


def test_images_without_labels_rejected(tmp_path):
    assert main(["mnist-linear", "--images", "only.idx",
                 "--out", str(tmp_path / "o")]) == 2
