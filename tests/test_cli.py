import argparse
import dataclasses
import json
import os
import time

import numpy as np
import pytest

from iterreg import cli, oracles
from iterreg.averaging import (WeightScheme, averaged_path, weights_kernel, weights_nsgd,
                               weights_sgd_adaptive)
from iterreg.cli import main
from iterreg.data_io import one_hot, read_report
from iterreg.optimizers import (load_path, make_schedule, nsgd_run, psgd_run, save_path,
                                sgd_run)
from iterreg.problems import LogisticProblem, Regularizer, make_rotated_quadratic, toy_problem


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


def test_kernel_demo(tmp_path):
    code, out, checks = run(tmp_path, "kernel-demo", "--kernel-n", "15")
    assert code == 0 and checks["pass"]
    assert written(out) == {"kernel_0.5.csv", "kernel_1.0.csv", "kernel_2.0.csv",
                            "checks.json"}


def test_kernel_demo_size_cap(tmp_path):
    code, _, checks = run(tmp_path, "kernel-demo", "--kernel-n", "200")
    assert code == 0 and checks["pass"]
    code, out, _ = run(tmp_path / "big", "kernel-demo", "--kernel-n", "1001")
    assert code == 2 and not out.exists()


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


def test_mnist_linear_ngd_above_the_rate_bound_exits_two(tmp_path, capsys):
    # The stand-in has beta = 159.3, so the default eta = 0.01 breaks eta < 1/beta.
    code, out, _ = run(tmp_path, "mnist-linear", "--optimizer", "ngd")
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == "config error: learning rate 0.01 >= 1/beta = 0.00627815\n"


def _nsgd_alphas(monkeypatch):
    """The alphas that the commands' NGD schemes are built with, in call order."""
    alphas, build = [], weights_nsgd
    monkeypatch.setattr(cli, "weights_nsgd", lambda eta, lam, alpha, steps:
                        alphas.append(alpha) or build(eta, lam, alpha, steps))
    return alphas


def test_mnist_linear_ngd_runs_at_the_problems_alpha(tmp_path, monkeypatch):
    # eta = 0.005 is below 1/beta, and NGD takes the stand-in's own alpha, 4.25e-5.
    # Only the monotonicity check fails: "after 10" is a premise of GD, not of NGD.
    alphas = _nsgd_alphas(monkeypatch)
    code, _, checks = run(tmp_path, "mnist-linear", "--optimizer", "ngd", "--eta", "0.005",
                          "--deterministic")
    assert code == 1 and f"{alphas[0]:.6g}" == "4.25377e-05"
    assert {c["check"] for c in checks["checks"] if not c["pass"]} == {
        "mnist-linear/deterministic-monotone-after-10"}


def test_mnist_logistic_ngd_takes_alpha_from_the_base_ridge(tmp_path, monkeypatch):
    # The softmax loss's alpha is its base ridge; a lower one needs no second flag.
    alphas = _nsgd_alphas(monkeypatch)
    code, _, checks = run(tmp_path, "mnist-logistic", "--optimizer", "ngd", "--base-ridge",
                          "0.5", "--limit", "1000")
    assert code == 0 and checks["pass"] and alphas == [0.5, 0.5]


def test_mnist_linear_from_idx_files(tmp_path):
    from iterreg.data_io import synthetic_mnist, write_idx_images, write_idx_labels

    images, labels = synthetic_mnist(n=1100, seed=1)
    ip, lp = str(tmp_path / "i.idx.gz"), str(tmp_path / "l.idx.gz")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    code, out, checks = run(
        tmp_path, "mnist-linear", "--images", ip, "--labels", lp,
        "--limit", "1100", "--deterministic")
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


def test_mnist_logistic_ngd_averages_with_its_own_scheme(tmp_path):
    # The accelerated path is averaged with weights_nsgd, whose P_0 is zero
    # (w_0 = w_1 = 0), not with plain GD's ratio.
    code, out, checks = run(tmp_path, "mnist-logistic", "--limit", "300", "--steps", "150",
                            "--batch", "100", "--optimizer", "ngd")
    assert code == 0 and checks["pass"]
    expected = weights_nsgd(0.01, 4.0, 1.0, 150).cumulative.tolist()
    for mode in ("deterministic", "stochastic"):
        report = read_report(str(out / f"mnist_logistic_{mode}.csv"), "csv")
        assert report.p_cumulative == expected and report.p_cumulative[0] == 0.0


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


def test_variance_mc_matches_single_seed_runs(tmp_path):
    # variance-mc steps all its seeds as one stack; each deviation is that
    # of the seed's own run up to round-off.
    code, out, _ = run(tmp_path, "variance-mc", "--mc-seeds", "24", "--seed", "5")
    assert code == 0
    payload = json.loads((out / "variance_mc.json").read_text())
    args = cli.build_parser().parse_args(["variance-mc", "--out", str(tmp_path)])
    prob, none, steps = toy_problem(), Regularizer.none(), args.steps
    sched = make_schedule(args.eta)
    adaptive = weights_sgd_adaptive(sched, args.lam, steps)
    cases = {
        "sgd": (lambda s: sgd_run(prob, none, sched, steps, seed=s, noise_sigma=args.sigma),
                oracles.expectation_path(prob, none, sched, steps), adaptive),
        "psgd": (lambda s: psgd_run(prob, Regularizer(0.0, prob.sigma), sched, steps, seed=s,
                                    noise_sigma=args.sigma),
                 oracles.expectation_path(prob, Regularizer.generalized_l2(0.0, prob.sigma),
                                          sched, steps, kind="pgd"), adaptive),
        "nsgd": (lambda s: nsgd_run(prob, none, sched, steps, alpha=args.alpha, seed=s,
                                    noise_sigma=args.sigma),
                 oracles.expectation_path(prob, none, sched, steps, kind="ngd",
                                          alpha=args.alpha),
                 weights_nsgd(args.eta, args.lam, args.alpha, steps)),
    }
    for kind, (run_one, mean, scheme) in cases.items():
        p_last = scheme.cumulative[steps]
        target = averaged_path(mean, scheme)[-1]
        ref = max(np.linalg.norm(p_last * averaged_path(run_one(seed), scheme)[-1]
                                 - p_last * target) for seed in range(5, 29))
        assert abs(payload[kind]["max_deviation"] - ref) <= 1e-12 * ref


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


def _stored_ngd(tmp_path, alpha=0.05, name="ngd.npz"):
    """A 500-step toy NGD record run at alpha = 0.05, stored with ``alpha``."""
    rec = nsgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500, alpha=0.05)
    stored = tmp_path / name
    save_path(dataclasses.replace(rec, alpha=alpha), str(stored))
    return stored


_SWEEP_GRID = ",".join(repr(float(lam)) for lam in np.logspace(-3, 3, 50))


def test_sweep_reweights_a_stored_ngd_record(tmp_path):
    # Re-weighted with weights_nsgd at the stored alpha; its decay ratio lies
    # in (0, 1) at every lambda > 0, so the whole grid is covered.
    code, out, checks = run(tmp_path, "sweep", "--path", str(_stored_ngd(tmp_path)),
                            "--lambda", _SWEEP_GRID)
    assert code == 0 and checks["pass"]
    residuals = [c["residual"] for c in checks["checks"]]
    assert len(residuals) == 50 and max(residuals) <= 1e-10


def test_sweep_check_fails_on_a_wrong_ngd_alpha(tmp_path):
    stored = _stored_ngd(tmp_path, alpha=0.06)
    code, _, checks = run(tmp_path, "sweep", "--path", str(stored), "--lambda", _SWEEP_GRID)
    assert code == 1 and not all(_passes(checks, "sweep/mixing-identity-at-K/"))


def test_sweep_refuses_records_it_cannot_reweight(tmp_path, capsys):
    # A pgd record lacks its Q; a noisy or mini-batch path meets the identity
    # at K only in mean; an ngd record needs a numeric alpha.
    prob, none, sched = toy_problem(), Regularizer.none(), make_schedule(0.1)
    cases = {"pgd": psgd_run(prob, Regularizer(0.0, prob.sigma), sched, 500),
             "sgd": sgd_run(prob, none, sched, 500, seed=1, noise_sigma=0.5)}
    for tag, rec in cases.items():
        stored = tmp_path / f"{tag}.npz"
        save_path(rec, str(stored))
        code, out, _ = run(tmp_path / tag, "sweep", "--path", str(stored))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert str(stored) in err and repr(tag) in err
    for label, alpha in (("text", "0.05"), ("none", None), ("bool", True)):
        stored = _stored_ngd(tmp_path, alpha=alpha, name=f"{label}.npz")
        code, out, _ = run(tmp_path / label, "sweep", "--path", str(stored))
        assert code == 2 and not out.exists()
        assert str(stored) in capsys.readouterr().err


def test_sweep_check_fails_on_corrupted_average(tmp_path, monkeypatch):
    # Blend each average halfway toward its ridge solution: the mixing
    # identity at step K no longer holds where the sweep has not converged.
    seen = {}

    def scheme(etas, lam, steps):
        seen["lam"] = lam
        return weights_sgd_adaptive(etas, lam, steps)

    def blended(path, scheme):
        ridge = oracles.ridge_solution(toy_problem(), Regularizer.l2(seen["lam"]))
        return 0.5 * (averaged_path(path, scheme) + ridge)

    monkeypatch.setattr(cli, "weights_sgd_adaptive", scheme)
    monkeypatch.setattr(cli, "averaged_path", blended)
    code, _, checks = run(tmp_path, "sweep", "--lambda", "0.01,0.1")
    assert code == 1
    assert [c["pass"] for c in checks["checks"]] == [False, False]


def test_sweep_identity_catches_a_unit_shift_at_small_p_k(tmp_path, monkeypatch):
    # At lambda = 1e-12, P_K = 5e-11, so shifting every averaged entry by 1.0
    # moves the residual by 5e-11: below a fixed 1e-10, far above round-off.
    monkeypatch.setattr(cli, "averaged_path", lambda path, scheme:
                        averaged_path(path, scheme) + 1.0)
    code, _, checks = run(tmp_path, "sweep", "--lambda", "1e-12")
    assert code == 1 and _passes(checks, "sweep/mixing-identity-at-K/") == [False]
    assert checks["checks"][0]["threshold"] < 1e-12


def test_one_step_sweep_passes(tmp_path):
    # At K = 1 the oracle's eigenbasis, not the K + 1 averaged rows, bounds round-off.
    code, _, checks = run(tmp_path, "sweep", "--steps", "1", "--lambda", "1e-12,1e-3,1,1e3")
    assert code == 0 and checks["pass"] and len(checks["checks"]) == 4


def _passes(checks, family):
    """Pass flags of the checks whose names start with ``family``, in order."""
    return [c["pass"] for c in checks["checks"] if c["check"].startswith(family)]


def _shifted(build):
    """``build``'s scheme one step ahead of the path: P_{k+1} stands where P_k
    belongs.  Every scheme constructor takes the horizon K last."""
    def shifted(*args):
        ahead = build(*args[:-1], args[-1] + 1)
        return WeightScheme(ahead.cumulative[1:], basis=ahead.basis, params=ahead.params)
    return shifted


def test_kernel_identity_check_fails_on_shifted_scheme(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "weights_kernel", _shifted(weights_kernel))
    code, _, checks = run(tmp_path, "kernel-demo", "--kernel-n", "15")
    assert code == 1
    assert _passes(checks, "kernel/identity/") == [False, False, False]


def test_demo2d_identity_checks_fail_on_shifted_scheme(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "weights_sgd_adaptive", _shifted(weights_sgd_adaptive))
    monkeypatch.setattr(cli, "weights_nsgd", _shifted(weights_nsgd))
    code, _, checks = run(tmp_path, "demo2d")
    assert code == 1
    assert _passes(checks, "demo2d/identity/") == [False, False, False]


@pytest.mark.parametrize("argv, family", [
    (["demo2d", "--lambda", "1e-12"], "demo2d/identity/"),
    (["kernel-demo", "--lam-hats", "1e-12"], "kernel/identity/"),
])
def test_identity_checks_catch_a_unit_shift_at_small_p_k(tmp_path, monkeypatch, argv, family):
    # At strength 1e-12, P_K is about 5e-11 (demo2d) and 2e-10 (kernel-demo), so
    # shifting every entry of identity_check's average by 1.0 moves its residual by
    # that much: below the fixed 1e-10 and 1e-9 these checks had, far above round-off.
    code, _, checks = run(tmp_path / "ok", *argv)
    assert code == 0 and checks["pass"]
    average = oracles._average
    monkeypatch.setattr(oracles, "_average", lambda *a, **k: average(*a, **k) + 1.0)
    code, _, checks = run(tmp_path / "fault", *argv)
    assert code == 1
    failing = {c["check"] for c in checks["checks"] if not c["pass"]}
    assert failing and failing == {c["check"] for c in checks["checks"]
                                   if c["check"].startswith(family)}


def test_sandwich_checks_fail_on_shifted_scheme(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "weights_sgd_adaptive", _shifted(weights_sgd_adaptive))
    code, _, checks = run(tmp_path, "sandwich")
    assert code == 1
    assert _passes(checks, "sandwich/") == [False, False]


def _blended(path, scheme):
    """The average blended halfway toward the plain path's last iterate."""
    return 0.5 * (averaged_path(path, scheme) + path.iterates[-1])


def test_mnist_linear_final_error_check_fails_on_corrupted_average(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "averaged_path", _blended)
    code, _, checks = run(tmp_path, "mnist-linear", "--limit", "1000", "--deterministic")
    assert code == 1
    assert _passes(checks, "mnist-linear/deterministic-final-error") == [False]


@pytest.mark.parametrize("steps", ["11", "20"])
def test_mnist_linear_final_gap_fails_on_corrupted_average(tmp_path, monkeypatch, steps):
    # The halfway blend passes the one-sided final-error check wherever P_K < 2/3
    # (0.375 at 11 steps, 0.561 at 20); the end gap that the identity pins does not.
    monkeypatch.setattr(cli, "averaged_path", _blended)
    code, _, checks = run(tmp_path, "mnist-linear", "--limit", "1000", "--deterministic",
                          "--steps", steps)
    assert code == 1
    assert _passes(checks, "mnist-linear/deterministic-final-gap-vs-theory") == [False]


# GD's run passes every check: test_limit_checks_pass_from_the_shortest_run_and_catch_a_fault.
@pytest.mark.parametrize("argv", [
    ["--limit", "1000", "--optimizer", "pgd"],
    ["--limit", "1000", "--optimizer", "ngd", "--eta", "0.005"],
    # Sigma's condition number is 3.0e9 here; PGD's solves in it leave a gap
    # residual of 3.2e-9, above 1e-10 and far below cond(Sigma) eps m.
    ["--limit", "800", "--optimizer", "pgd"],
])
def test_mnist_linear_final_gap_holds_for_every_optimizer(tmp_path, argv):
    code, _, checks = run(tmp_path, "mnist-linear", "--deterministic", *argv)
    assert code in (0, 1)
    assert _passes(checks, "mnist-linear/deterministic-final-gap-vs-theory") == [True]


def test_kernel_limit_check_fails_on_corrupted_average(tmp_path, monkeypatch):
    # Blend each average halfway toward the plain path's last iterate, the
    # unpenalized solution: the identity, checked by the oracle's own
    # averaging, still holds, and only the limit check sees the fault.
    monkeypatch.setattr(cli, "averaged_path", _blended)
    code, _, checks = run(tmp_path, "kernel-demo", "--kernel-n", "15")
    assert code == 1
    assert _passes(checks, "kernel/limit/") == [False, False, False]
    assert _passes(checks, "kernel/decay-slope/") == [False, False, False]
    assert _passes(checks, "kernel/identity/") == [True, True, True]


def test_demo2d_gap_checks_fail_on_corrupted_average(tmp_path, monkeypatch):
    # identity_check averages on its own, so only the checks that read the
    # command's average see the blend.
    monkeypatch.setattr(cli, "averaged_path", _blended)
    code, _, checks = run(tmp_path, "demo2d")
    assert code == 1
    assert _passes(checks, "demo2d/final-gap-vs-theory/") == [False, False, False]
    assert _passes(checks, "demo2d/decay-slope/") == [False, False, False]
    assert _passes(checks, "demo2d/identity/") == [True, True, True]


def test_demo2d_decay_slopes_fail_when_the_pair_runs_at_half_lambda(tmp_path, monkeypatch):
    # Scheme and penalized run both at lambda / 2 still agree with each other,
    # so the identity holds; every gap then decays slower than the rate that
    # the command's own eta, lambda and alpha fix.
    run_pair = cli._run_pair
    monkeypatch.setattr(cli, "_run_pair", lambda prob, name, sched, lam, *rest:
                        run_pair(prob, name, sched, lam / 2, *rest))
    code, _, checks = run(tmp_path, "demo2d")
    assert code == 1
    assert _passes(checks, "demo2d/decay-slope/") == [False, False, False]
    assert _passes(checks, "demo2d/identity/") == [True, True, True]


def test_sweep_rejects_truncated_path(tmp_path, capsys):
    rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    stored.write_bytes(stored.read_bytes()[:4000])
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2 and not out.exists()
    assert str(stored) in capsys.readouterr().err


def test_sweep_rejects_path_without_fingerprint(tmp_path, capsys):
    other = make_rotated_quadratic((0.5, 2.0), 0.3, (-1.0, 2.0))
    rec = sgd_run(other, Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(dataclasses.replace(rec, problem_fingerprint=""), str(stored))
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2 and not out.exists()
    assert str(stored) in capsys.readouterr().err


def test_sweep_rejects_penalized_path(tmp_path, capsys):
    rec = sgd_run(toy_problem(), Regularizer.l2(0.5), make_schedule(0.1).coupled(0.5), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert str(stored) in err and "penalty" in err


@pytest.mark.parametrize("lam", [0.01, 2.0, 100.0])
def test_stored_plain_path_of_a_pair_reweights_at_any_lambda(tmp_path, lam):
    # The plain run of a pair at lambda = 0.5 stores only the rates it stepped
    # at, so one stored path gives the run penalized at any other lambda.
    prob, steps = toy_problem(), 500
    plain, _, _ = cli._run_pair(prob, cli._optimizer(prob, "gd", None), make_schedule(0.1),
                                0.5, steps)
    save_path(plain, str(tmp_path / "plain"))
    rec = load_path(str(tmp_path / "plain"))
    reg = sgd_run(prob, Regularizer.l2(lam), rec.schedule.coupled(lam), steps)
    scheme = weights_sgd_adaptive(rec.schedule, lam, steps)
    assert oracles.identity_check(rec, reg, scheme) <= 1e-10


def test_pgd_preconditioner_is_chosen_once_in_its_penalty():
    # _optimizer picks Q per problem family and binds it only in the penalty;
    # the plain run of a pair carries it as penalty(0.0).
    quad = toy_problem()
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(40, 4))
    soft = LogisticProblem(X=x, Y=one_hot(rng.integers(0, 3, size=40), 3), base_ridge=0.5)
    soft_q = x.T @ x / 40 + (0.5 + 1e-8) * np.eye(4)
    sched = make_schedule(0.1)
    for prob, q in ((quad, quad.sigma), (soft, soft_q)):
        run_, penalty, _ = cli._optimizer(prob, "pgd", None)
        assert run_ is psgd_run
        assert penalty(0.0).lam == 0.0 and penalty(0.0).Q.tobytes() == q.tobytes()
        plain, _, _ = cli._run_pair(prob, cli._optimizer(prob, "pgd", None), sched, 0.5, 30)
        ref = psgd_run(prob, Regularizer(0.0, q), sched, 30)
        assert plain.iterates.tobytes() == ref.iterates.tobytes()


@pytest.mark.parametrize("argv, calls", [
    (["mnist-logistic", "--limit", "300", "--batch", "50", "--steps", "20"], 1),
    (["mnist-linear", "--limit", "800", "--batch", "100", "--steps", "20"], 1),
])
def test_pgd_decomposes_its_q_once_per_command(tmp_path, monkeypatch, argv, calls):
    # Q is checked once, where _optimizer binds it, and every penalty of the
    # family shares it; mnist-linear's Q is Sigma, which only from_data checks.
    eigvalsh, seen = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **k: seen.append(a[0].shape) or eigvalsh(*a, **k))
    code, _, _ = run(tmp_path, *argv, "--optimizer", "pgd")
    assert code in (0, 1) and seen == [(784, 784)] * calls


def test_sweep_rejects_malformed_path_headers(tmp_path, capsys):
    rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500)
    stored = tmp_path / "path.npz"
    save_path(rec, str(stored))
    with np.load(stored) as archive:
        header = json.loads(archive["header"].tobytes())
    bare = {"format": header["format"], "version": 4}
    only_lam = dict(header, schedule={"lam": 0.0})
    cases = [("bare", bare, "steps"), ("only-lam", only_lam, "etas")]
    # A stored lambda that is no finite strength >= 0 is refused, never read as 0.
    for i, lam in enumerate((None, [0.5], "x", float("nan"), -1, float("inf"), True)):
        cases.append((f"lam-{i}", dict(header, lam=lam), "lam"))
    # The problem fingerprint is a string, or the file is named as malformed.
    for i, problem in enumerate((5, None, ["x"], {"a": 1})):
        cases.append((f"problem-{i}", dict(header, problem=problem), "problem"))
    for label, bad, key in cases:
        path = tmp_path / f"{label}.npz"
        with open(path, "wb") as fh:
            np.savez(fh, header=np.bytes_(json.dumps(bad)), iterates=rec.iterates)
        code, out, _ = run(tmp_path / label, "sweep", "--path", str(path))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert str(path) in err and f"header key {key!r}" in err


def test_sweep_refuses_a_version_3_record(tmp_path, capsys):
    # Version 3 kept lam and alpha in an "extras" table; it has no second reader.
    rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 50)
    stored = tmp_path / "v3.npz"
    save_path(rec, str(stored))
    with np.load(stored) as archive:
        header = json.loads(archive["header"].tobytes())
    old = {k: v for k, v in header.items() if k not in ("lam", "alpha")}
    with open(stored, "wb") as fh:
        np.savez(fh, header=np.bytes_(json.dumps(dict(old, version=3, extras={"lam": 0.0}))),
                 iterates=rec.iterates)
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored))
    assert code == 2 and not out.exists()
    assert f"{stored}: unsupported version 3" in capsys.readouterr().err


def test_unreadable_input_files_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    code, out, _ = run(tmp_path, "sweep", "--path", str(missing))
    assert code == 2 and not out.exists()
    assert str(missing) in capsys.readouterr().err
    config = tmp_path / "missing.json"
    assert main(["--config", str(config), "demo2d", "--out", str(tmp_path / "c")]) == 2
    assert str(config) in capsys.readouterr().err


def test_divergence_exits_three(tmp_path, capsys):
    code, out, checks = run(tmp_path, "l1-hull", "--eta", "5", "--steps", "100")
    assert code == 3 and checks is None
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("diverged: ") and "step 14" in err
    assert err.count("\n") == 1


def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch):
    def fail(args, checks, out_dir):
        raise RuntimeError("x")

    monkeypatch.setattr(cli, "cmd_demo2d", fail)
    code, out, checks = run(tmp_path, "demo2d")
    assert code == 3 and checks is None and not out.exists()
    assert capsys.readouterr().err == "numerical failure: x\n"


def test_broken_invariant_exits_three(tmp_path, capsys, monkeypatch):
    # An AssertionError is a broken internal invariant (LRSchedule.coupled's),
    # not a failed check: exit 3, and no directory of the run's own is left.
    def fail(args, checks, out_dir):
        raise AssertionError("learning-rate coupling violated")

    monkeypatch.setattr(cli, "cmd_demo2d", fail)
    code, out, checks = run(tmp_path, "demo2d")
    assert code == 3 and checks is None and not out.exists()
    assert capsys.readouterr().err == "broken invariant: learning-rate coupling violated\n"


def test_sandwich_gamma_at_its_cap_is_a_config_error(tmp_path, capsys):
    # At eta = 0.4, alpha = 1 and beta = 2 this gamma is under its cap, but
    # lam2 = 1/gamma - 1/eta - (beta - alpha) rounds to 0.
    code, out, _ = run(tmp_path, "sandwich", "--gamma", "0.2857142857142857")
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "gamma" in err


@pytest.mark.parametrize("argv", [
    ["demo2d", "--eta", "nan"],
    ["demo2d", "--lambda", "nan"],
    ["sweep", "--eta", "nan"],
    ["sweep", "--lambda", "nan"],
    ["variance-mc", "--eta", "nan"],
    ["variance-mc", "--sigma", "nan", "--mc-seeds", "2"],
    ["mnist-linear", "--eta", "nan"],
    ["mnist-linear", "--lambda", "nan"],
    ["mnist-logistic", "--base-ridge", "nan"],
    ["sandwich", "--gamma", "nan"],
    ["sandwich", "--eta", "nan"],
    ["l1-hull", "--lambda", "nan"],
    ["kernel-demo", "--lam-hats", "nan"],
])
def test_nan_flags_are_config_errors(tmp_path, capsys, argv):
    # NaN fails every comparison; each range test is written so that it fails
    # the test too, and is bad input, not a divergence or a failed claim.
    code, out, _ = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv, exit_code", [
    (["sandwich", "--steps", "49"], 2),
    (["l1-hull", "--eta", "5", "--steps", "100"], 3),
])
def test_failed_run_keeps_an_out_directory_it_did_not_make(tmp_path, argv, exit_code):
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept")
    assert main(argv + ["--out", str(out)]) == exit_code
    assert written(out) == {"earlier.txt"}


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
    # sweep keeps its timings in sweep.json, so its checks.json is the same bytes.
    assert main(["sweep", "--out", str(tmp_path / "s1")]) == 0
    assert main(["sweep", "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1" / "checks.json").read_bytes() == \
        (tmp_path / "s2" / "checks.json").read_bytes()


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


def test_invalid_configs_exit_two(tmp_path, capsys):
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
    # config files that are not {"version": 1, "args": {...}}, or not ASCII JSON at all,
    # named in the message
    for label, payload in (("list", json.dumps([1]).encode()),
                           ("args-list", json.dumps({"version": 1, "args": [1]}).encode()),
                           ("truncated", b'{"version": 1, "args": {\n'),
                           ("binary", bytes(range(256)))):
        cfg = tmp_path / f"{label}.json"
        cfg.write_bytes(payload)
        capsys.readouterr()
        assert main(["--config", str(cfg), "demo2d", "--out", str(tmp_path / label)]) == 2
        assert str(cfg) in capsys.readouterr().err and not (tmp_path / label).exists()


@pytest.mark.parametrize("argv, flag", [
    (["demo2d", "--lambda", "0.1,1.0"], "--lambda"),
    (["demo2d", "--lambda", "0.1 1.0"], "--lambda"),
    (["mnist-linear", "--lambda", "1,4", "--limit", "50", "--steps", "20"], "--lambda"),
    (["mnist-logistic", "--lambda", "1,4", "--limit", "50", "--steps", "20"], "--lambda"),
    (["variance-mc", "--lambda", "0.1,0.2", "--mc-seeds", "2", "--steps", "20"], "--lambda"),
])
def test_single_lambda_commands_reject_lists(tmp_path, capsys, argv, flag):
    # These commands run one lambda; a longer list, comma- or space-separated,
    # must not be cut to its head.
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert flag in capsys.readouterr().err


def test_images_without_labels_rejected(tmp_path):
    assert main(["mnist-linear", "--images", "only.idx",
                 "--out", str(tmp_path / "o")]) == 2


# The flags each subcommand reads, and so the only ones it accepts.
_MNIST_FLAGS = {"--out", "--seed", "--steps", "--lambda", "--eta", "--batch",
                "--deterministic", "--limit", "--format", "--images", "--labels",
                "--optimizer"}
ACCEPTED_FLAGS = {
    "demo2d": {"--out", "--steps", "--lambda", "--eta", "--alpha", "--format"},
    "kernel-demo": {"--out", "--seed", "--steps", "--format", "--kernel-n", "--lam-hats"},
    "mnist-linear": _MNIST_FLAGS,
    "mnist-logistic": _MNIST_FLAGS | {"--base-ridge"},
    "variance-mc": {"--out", "--seed", "--steps", "--lambda", "--eta", "--alpha",
                    "--sigma", "--delta", "--mc-seeds"},
    "sandwich": {"--out", "--seed", "--steps", "--eta", "--gamma"},
    "l1-hull": {"--out", "--steps", "--lambda", "--eta"},
    "sweep": {"--out", "--steps", "--lambda", "--eta", "--path"},
}


def _subparsers(parser):
    """Subcommand name -> its parser, in the order they were added."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    parser = cli.build_parser()
    assert {o for a in parser._actions for o in a.option_strings} == {"-h", "--help",
                                                                       "--config"}
    accepted = {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
                for name, sub in _subparsers(parser).items()}
    assert accepted == ACCEPTED_FLAGS
    assert sum(len(flags) for flags in accepted.values()) == 60


def test_command_lists_in_the_docs_match_the_parser():
    commands = list(_subparsers(cli.build_parser()))
    listed = cli.__doc__.split("Subcommands:\n")[1].splitlines()
    assert [line.split()[0] for line in listed if line.strip()] == commands
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| subcommand | flags |\n|---|---|\n")[1]
    rows = table[: table.index("\n\n")].splitlines()
    assert [row.split("`")[1] for row in rows] == commands
    usage = text.split("## CLI\n")[1].split("```\n")[1]
    assert [line.split()[1] for line in usage.splitlines()] == commands


@pytest.mark.parametrize("argv, flag", [
    (["kernel-demo", "--kernel-n", "8", "--eta", "0.05"], "--eta"),
    (["sweep", "--seed", "4"], "--seed"),
    (["variance-mc", "--mc-seeds", "2", "--format", "json"], "--format"),
    (["l1-hull", "--seed", "3"], "--seed"),
    (["mnist-linear", "--deterministic", "--batch", "500"], "--batch"),
    (["mnist-logistic", "--deterministic", "--batch", "500"], "--batch"),
])
def test_flags_a_command_does_not_read_exit_two(tmp_path, capsys, argv, flag):
    code, out, _ = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    assert flag in capsys.readouterr().err


def test_config_keys_a_command_does_not_read_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "args": {"batch": 7}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "demo2d", "--out", str(out)]) == 2
    assert not out.exists() and "--batch" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["demo2d", "--steps", "0"], "--steps"),
    (["variance-mc", "--mc-seeds", "0"], "--mc-seeds"),
    (["kernel-demo", "--kernel-n", "0"], "--kernel-n"),
    (["kernel-demo", "--kernel-n", "1001"], "--kernel-n"),
    (["mnist-linear", "--batch", "0", "--limit", "50", "--steps", "20"], "--batch"),
    (["mnist-linear", "--limit", "0", "--steps", "20"], "--limit"),
    # A stochastic run whose batch covers every loaded row would take the full gradient.
    (["mnist-linear", "--limit", "800", "--batch", "800", "--steps", "20"], "--batch 800"),
    (["mnist-logistic", "--limit", "500", "--steps", "20"], "--limit 500"),
])
def test_counts_out_of_range_exit_two(tmp_path, capsys, argv, flag):
    code, out, _ = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    assert flag in capsys.readouterr().err


def test_mnist_linear_with_fewer_rows_than_features_exits_two(tmp_path, capsys):
    # Sigma = X^T X / n has rank at most n < d = 784; IDX files may also hold
    # fewer images than --limit asks for.
    from iterreg.data_io import synthetic_mnist, write_idx_images, write_idx_labels

    images, labels = synthetic_mnist(n=600, seed=1)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    for label, extra in (("stand-in", ["--limit", "600"]),
                         ("idx", ["--images", ip, "--labels", lp])):
        code, out, _ = run(tmp_path / label, "mnist-linear", *extra)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "--limit" in err and "n = 600" in err and "d = 784" in err


@pytest.mark.parametrize("argv", [
    ["demo2d", "--steps", "30"],
    ["demo2d", "--steps", "187"],
    ["kernel-demo", "--kernel-n", "8", "--steps", "60"],
    ["demo2d", "--steps", "150"],
])
def test_runs_too_short_for_the_decay_slope_exit_two(tmp_path, capsys, argv):
    # A slope fitted to no points must not pass as -inf.
    code, out, _ = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "--steps" in err and {"demo2d": "188", "kernel-demo": "72"}[argv[0]] in err


def test_shortest_run_with_a_decay_slope_fits_it(tmp_path):
    # 188 steps leave exactly 20 points from step 169, where GD's gap
    # transient at rate 1 - lam * gamma has died down to the 1e-3 allowance.
    code, _, checks = run(tmp_path, "demo2d", "--steps", "188")
    slopes = [c["residual"] for c in checks["checks"] if "/decay-slope/" in c["check"]]
    assert code in (0, 1) and len(slopes) == 3 and np.all(np.isfinite(slopes))


@pytest.mark.parametrize("steps", ["188", "227", "228", "500"])
def test_demo2d_decay_slopes_pass_from_the_shortest_fit(tmp_path, steps):
    # 227 failed gd's slope (-3.31e-3 against -3.32e-3) while the fit started at K // 2.
    code, _, checks = run(tmp_path, "demo2d", "--steps", steps)
    assert code == 0 and checks["pass"]


_KERNEL_FAULT = ("averaged_path", _blended)
_MNIST_FAULT = ("weights_sgd_adaptive", _shifted(weights_sgd_adaptive))


@pytest.mark.parametrize("argv, family, fault", [
    *[pytest.param(["kernel-demo", "--steps", k], "kernel/limit/", _KERNEL_FAULT,
                   id=f"kernel-demo-{k}") for k in ("78", "100", "200", "500")],
    *[pytest.param(["mnist-linear", "--limit", "1000", "--deterministic", "--steps", k],
                   "mnist-linear/deterministic-final-error", _MNIST_FAULT,
                   id=f"mnist-linear-{k}") for k in ("11", "100", "500")],
])
def test_limit_checks_pass_from_the_shortest_run_and_catch_a_fault(tmp_path, monkeypatch,
                                                                     argv, family, fault):
    # From each command's shortest run (kernel-demo's decay-slope fit needs 78
    # steps, mnist-linear's monotonicity check 11) to the default 500.  Where K
    # steps cannot meet a check's tolerance, it allows the gap the identity fixes
    # at step K: 2.85e-6 against 1e-6 at kernel-demo --steps 200, 0.0137 against
    # 5.5e-4 at mnist-linear --steps 100 failed before.
    code, _, checks = run(tmp_path / "ok", *argv)
    assert code == 0 and checks["pass"]
    monkeypatch.setattr(cli, *fault)
    code, _, checks = run(tmp_path / "fault", *argv)
    assert code == 1 and not any(_passes(checks, family))


def _scheme_at(factor):
    """``cli._optimizer`` whose scheme constructor builds at factor * lambda,
    while the penalized run keeps lambda."""
    optimizer = cli._optimizer

    def wrapped(*args, **kwargs):
        run, penalty, make_scheme = optimizer(*args, **kwargs)
        return run, penalty, lambda sched, lam, steps: make_scheme(sched, factor * lam, steps)
    return wrapped


_RIDGE, _EPSILON = oracles.ridge_solution, oracles.variance_epsilon
_MNIST_LINEAR_CHECKS = {"mnist-linear/deterministic-monotone-after-10",
                        "mnist-linear/deterministic-final-error",
                        "mnist-linear/deterministic-final-gap-vs-theory",
                        "mnist-linear/stochastic-avg-below-plain"}


@pytest.mark.parametrize("argv, fault, failing", [
    pytest.param(["mnist-linear", "--limit", "1000"], (cli, "_optimizer", _scheme_at(10.0)),
                 _MNIST_LINEAR_CHECKS, id="mnist-linear-scheme-at-10-lambda"),
    pytest.param(["mnist-logistic", "--limit", "1000"], (cli, "_optimizer", _scheme_at(10.0)),
                 {"mnist-logistic/deterministic-avg-below-plain",
                  "mnist-logistic/stochastic-avg-below-plain"},
                 id="mnist-logistic-scheme-at-10-lambda"),
    pytest.param(["l1-hull"], (oracles, "l1_prox_solution",
                               lambda prob, lam, tol: _RIDGE(prob, Regularizer.l2(lam))),
                 {"l1-hull/some-l1-outside"}, id="l1-hull-ridge-as-l1"),
    pytest.param(["l1-hull"], (oracles, "ridge_solution", lambda *a: 1.5 * _RIDGE(*a)),
                 {"l1-hull/all-l2-inside"}, id="l1-hull-ridge-scaled"),
    pytest.param(["variance-mc"], (oracles, "variance_epsilon",
                                   lambda *a, **k: 0.1 * _EPSILON(*a, **k)),
                 {"variance-mc/nsgd"}, id="variance-mc-epsilon-tenth"),
])
def test_check_families_fail_on_an_injected_fault(tmp_path, monkeypatch, argv, fault, failing):
    # Each fault fails exactly the named checks.  variance-mc's sgd and psgd
    # checks pass even so: at defaults their epsilon is 47.0, against largest
    # deviations of 0.397 and 0.089.
    monkeypatch.setattr(*fault)
    code, _, checks = run(tmp_path, *argv)
    assert code == 1
    assert {c["check"] for c in checks["checks"] if not c["pass"]} == failing


@pytest.mark.parametrize("explicit", [["--steps", "300"], ["--steps=300"]])
def test_explicit_flags_beat_the_config_file(tmp_path, explicit):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "args": {"steps": 400}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "demo2d", *explicit, "--out", str(out)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["checks"][0]["params"]["steps"] == 300


@pytest.mark.parametrize("argv, least", [
    (["sandwich", "--steps", "49"], "50"),
    (["mnist-linear", "--steps", "10", "--limit", "800", "--deterministic"], "11"),
])
def test_runs_too_short_for_their_checks_exit_two(tmp_path, capsys, argv, least):
    # The sandwich envelope is fitted on steps 10-50, and the mnist-linear
    # monotonicity check needs two errors after step 10.
    code, out, _ = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert f"--steps >= {least}" in err and "broadcast" not in err


def test_shortest_sandwich_run_passes(tmp_path):
    code, _, checks = run(tmp_path, "sandwich", "--steps", "50")
    assert code == 0 and checks["pass"]


@pytest.mark.parametrize("extra, flag", [
    (["--steps", "7"], "--steps"),
    (["--eta=0.3"], "--eta"),
    (["--steps", "500", "--eta", "0.1"], "--steps"),
])
def test_sweep_path_rejects_the_flags_the_record_fixes(tmp_path, capsys, extra, flag):
    stored = tmp_path / "path.npz"
    save_path(sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500), str(stored))
    code, out, _ = run(tmp_path, "sweep", "--path", str(stored), *extra)
    assert code == 2 and not out.exists()
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mnist-linear", "mnist-logistic"])
def test_deterministic_idx_runs_refuse_seed(tmp_path, capsys, command):
    # IDX files replace the seeded stand-in, and a deterministic run draws no
    # batches, so nothing reads --seed; without the files it draws the stand-in.
    from iterreg.data_io import synthetic_mnist, write_idx_images, write_idx_labels

    images, labels = synthetic_mnist(n=800, seed=1)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    short = [command, "--limit", "800", "--steps", "20", "--deterministic"]
    code, out, _ = run(tmp_path / "idx", *short, "--images", ip, "--labels", lp, "--seed", "5")
    assert code == 2 and not out.exists()
    assert f"{command} --deterministic --images --labels does not read --seed" \
        in capsys.readouterr().err
    for label, extra in (("idx-no-seed", ["--images", ip, "--labels", lp]),
                         ("stand-in", ["--seed", "5"])):
        assert run(tmp_path / label, *short, *extra)[2] is not None


def test_config_keys_a_mode_does_not_read_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "args": {"deterministic": True, "batch": 64}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "mnist-linear", "--out", str(out)]) == 2
    assert not out.exists() and "--batch" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["argv", "config"])
@pytest.mark.parametrize("optimizer", ["gd", "pgd", "ngd"])
@pytest.mark.parametrize("command", ["mnist-linear", "mnist-logistic"])
def test_alpha_is_refused_where_no_momentum_reads_it(tmp_path, capsys, command, optimizer,
                                                      via):
    # No flag is read for alpha: gd and pgd have no momentum, and ngd's takes the
    # problem's own strong convexity.
    argv = [command, "--optimizer", optimizer, "--deterministic", "--steps", "20",
            "--limit", "1000"]
    if via == "argv":
        argv += ["--alpha", "nan"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "args": {"alpha": 0.5}}))
        argv = ["--config", str(cfg), *argv]
    code, out, _ = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    assert "unrecognized arguments: --alpha" in capsys.readouterr().err
