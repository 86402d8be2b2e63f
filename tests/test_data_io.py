import gzip
import struct

import numpy as np
import pytest

from iterreg.data_io import (
    Dataset,
    IdxFormatError,
    Report,
    load_idx,
    one_hot,
    read_report,
    synthetic_mnist,
    write_idx_images,
    write_idx_labels,
    write_report,
)


def write_pair(tmp_path, images, labels, suffix=""):
    ip = tmp_path / f"imgs.idx{suffix}"
    lp = tmp_path / f"lbls.idx{suffix}"
    write_idx_images(str(ip), images)
    write_idx_labels(str(lp), labels)
    return str(ip), str(lp)


class TestIdx:
    def test_hand_built_two_image_pair(self, tmp_path):
        # bytes assembled by the test itself, decoded values checked exactly
        images = np.array([[[0, 1], [2, 3]], [[255, 254], [253, 252]]],
                          dtype=np.uint8)
        labels = np.array([0, 1], dtype=np.uint8)
        ip, lp = write_pair(tmp_path, images, labels)
        data = load_idx(ip, lp)
        assert data.X.shape == (2, 4)
        np.testing.assert_array_equal(data.X[0], np.array([0, 1, 2, 3]) / 255.0)
        np.testing.assert_array_equal(
            data.X[1], np.array([255, 254, 253, 252]) / 255.0)
        expected_y = np.zeros((2, 10))
        expected_y[0, 0] = 1.0
        expected_y[1, 1] = 1.0
        np.testing.assert_array_equal(data.Y, expected_y)

    def test_round_trip_is_exact(self, tmp_path):
        images, labels = synthetic_mnist(n=64, seed=3, side=7)
        ip, lp = write_pair(tmp_path, images, labels)
        data = load_idx(ip, lp)
        np.testing.assert_array_equal(
            data.X, images.reshape(64, -1).astype(np.float64) / 255.0)
        np.testing.assert_array_equal(np.argmax(data.Y, axis=1), labels)

    def test_gzip_sniffing(self, tmp_path):
        images, labels = synthetic_mnist(n=16, seed=4, side=5)
        ip, lp = write_pair(tmp_path, images, labels, suffix=".gz")
        with open(ip, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # actually gzip-compressed
        data = load_idx(ip, lp)
        assert data.n == 16

    def test_limit_truncates(self, tmp_path):
        images, labels = synthetic_mnist(n=32, seed=5, side=5)
        ip, lp = write_pair(tmp_path, images, labels)
        assert load_idx(ip, lp, limit=10).n == 10

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        lbl = tmp_path / "ok-labels.idx"
        write_idx_labels(str(lbl), np.array([0], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx(str(path), str(lbl))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + b"\x00" * 3)
        lbl = tmp_path / "l.idx"
        write_idx_labels(str(lbl), np.zeros(4, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(str(path), str(lbl))

    def test_count_mismatch(self, tmp_path):
        images, labels = synthetic_mnist(n=8, seed=6, side=4)
        ip, _ = write_pair(tmp_path, images, labels)
        lp = tmp_path / "mismatch.idx"
        write_idx_labels(str(lp), labels[:5])
        with pytest.raises(IdxFormatError, match="label count"):
            load_idx(ip, str(lp))


class TestOneHot:
    def test_basic(self):
        np.testing.assert_array_equal(
            one_hot([0, 2], 3), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_empty(self):
        assert one_hot([], 3).shape == (0, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            one_hot([3], 3)


class TestDataset:
    def test_feature_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(X=np.array([[1.5]]), Y=np.array([[1.0]]))

    def test_one_hot_rows_enforced(self):
        with pytest.raises(ValueError, match="one-hot"):
            Dataset(X=np.array([[0.5]]), Y=np.array([[0.4]]))


class TestSyntheticMnist:
    def test_values_quantized_and_in_range(self):
        images, labels = synthetic_mnist(n=100, seed=0)
        assert images.dtype == np.uint8 and images.shape == (100, 28, 28)
        assert labels.max() < 10

    def test_deterministic_in_seed(self):
        a = synthetic_mnist(n=20, seed=1)
        b = synthetic_mnist(n=20, seed=1)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestReport:
    def make_report(self):
        return Report(
            experiment="demo",
            iters=[0, 1],
            err_plain=[0.5, 0.25],
            err_avg=[0.3, 1.0 / 3.0],
            p_cumulative=[0.1, 0.19],
            config={"eta": 0.1},
            wall_clock_s=0.01,
        )

    def test_csv_round_trip_bit_exact(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.csv"
        write_report(report, str(path), "csv")
        back = read_report(str(path), "csv")
        assert back.iters == report.iters
        for name in ("err_plain", "err_avg", "p_cumulative"):
            got = np.asarray(getattr(back, name))
            want = np.asarray(getattr(report, name))
            assert got.tobytes() == want.tobytes()

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.json"
        write_report(report, str(path), "json")
        back = read_report(str(path), "json")
        assert back.config == {"eta": 0.1}
        assert np.asarray(back.err_avg).tobytes() == \
            np.asarray(report.err_avg).tobytes()

    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report(Report(experiment="none"), str(path), "csv")
        assert path.read_text().strip() == "iter,err_plain_vs_reg_l1,err_avg_vs_reg_l1,P_k"

    def test_non_finite_rejected(self, tmp_path):
        report = self.make_report()
        report.err_avg[0] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            write_report(report, str(tmp_path / "x.csv"), "csv")

    def test_ragged_columns_rejected(self, tmp_path):
        report = self.make_report()
        report.err_avg.append(1.0)
        with pytest.raises(ValueError, match="lengths"):
            write_report(report, str(tmp_path / "x.csv"), "csv")

    def test_demo_report_read_back_properties(self, tmp_path):
        # Write the 2-D demo's error curves and verify, on the parsed-back
        # data, that the averaged error decays monotonically once the
        # early transient has passed.  At lambda = 0.1 the curve peaks
        # near iteration 64 (the scheme tail shrinks by ~1% per step while
        # ||w_k - wavg_k|| is still growing), so the check starts at 100.
        from iterreg.averaging import averaged_path, weights_sgd_adaptive
        from iterreg.optimizers import make_schedule, sgd_run
        from iterreg.problems import Regularizer, toy_problem

        prob = toy_problem()
        sched = make_schedule(0.1)
        plain = sgd_run(prob, Regularizer.none(), sched, 500)
        reg = sgd_run(prob, Regularizer.l2(0.1), sched.coupled(0.1), 500)
        scheme = weights_sgd_adaptive(sched, 0.1, 500)
        avg = averaged_path(plain, scheme)
        report = Report(
            experiment="demo2d-gd",
            iters=list(range(501)),
            err_plain=np.abs(plain.iterates - reg.iterates).sum(axis=1).tolist(),
            err_avg=np.abs(avg - reg.iterates).sum(axis=1).tolist(),
            p_cumulative=scheme.cumulative.tolist(),
        )
        path = tmp_path / "demo.csv"
        write_report(report, str(path), "csv")
        back = read_report(str(path), "csv")
        err = np.asarray(back.err_avg)
        assert err.tobytes() == np.asarray(report.err_avg).tobytes()
        assert np.all(np.diff(err[100:]) <= 0)
        assert np.all(np.diff(np.asarray(back.p_cumulative)) >= 0)
