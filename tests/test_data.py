import numpy as np
import pytest

from overparam import data
from overparam.data import (DataGenerationError, Dataset, generate_separated,
                            save_dataset, slice_diameter, validate_dataset)

from oracles import load_dataset


class TestSliceGeometry:
    def test_antipodal_cap(self):
        # the two slice endpoints (+-sqrt(1-mu^2) e1, mu) realize the diameter
        mu = 0.6
        assert slice_diameter(mu) == pytest.approx(1.6, rel=1e-15)
        r = np.sqrt(1 - mu * mu)
        a = np.array([r, 0.0, mu])
        b = np.array([-r, 0.0, mu])
        assert np.linalg.norm(a - b) == pytest.approx(slice_diameter(mu), rel=1e-15)


class TestGenerate:
    def test_invariants_hold_exactly(self):
        ds = generate_separated(n=20, d=10, mu=0.5, phi=0.1, seed=0)
        norms = np.linalg.norm(ds.inputs, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert np.all(ds.inputs[:, -1] == 0.5)
        assert set(ds.labels.tolist()) == {-1.0, 1.0}

    def test_margin_respected(self):
        ds = generate_separated(n=20, d=10, mu=0.5, phi=0.1, seed=0)
        report = validate_dataset(ds)
        assert report.min_cross_class_distance >= 0.1
        assert report.passed

    def test_balanced_labels(self):
        for n in (6, 7):
            ds = generate_separated(n=n, d=5, mu=0.4, phi=0.01, seed=1)
            pos = int(np.count_nonzero(ds.labels > 0))
            assert pos == (n + 1) // 2

    def test_deterministic(self):
        a = generate_separated(n=12, d=6, mu=0.3, phi=0.05, seed=9)
        b = generate_separated(n=12, d=6, mu=0.3, phi=0.05, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_infeasible_phi_rejected_upfront(self):
        # phi beyond the slice diameter can never be met
        with pytest.raises(ValueError):
            generate_separated(n=4, d=5, mu=0.6, phi=1.61, seed=0)

    def test_budget_exhaustion(self, monkeypatch):
        # phi at the slice diameter forces antipodal pairs: unreachable for n > 2
        monkeypatch.setattr(data, "REJECTION_BUDGET", 500)
        with pytest.raises(DataGenerationError, match="after 500 rejections"):
            generate_separated(n=8, d=4, mu=0.5, phi=slice_diameter(0.5),
                               seed=0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_separated(n=1, d=5, mu=0.5, phi=0.1, seed=0)
        with pytest.raises(ValueError):
            generate_separated(n=4, d=2, mu=0.5, phi=0.1, seed=0)
        with pytest.raises(ValueError):
            generate_separated(n=4, d=5, mu=1.0, phi=0.1, seed=0)
        with pytest.raises(ValueError):
            generate_separated(n=4, d=5, mu=0.5, phi=0.0, seed=0)

    def test_round_trip_validation_over_seeds(self):
        for seed in range(10):
            ds = generate_separated(n=10, d=6, mu=0.45, phi=0.08, seed=seed)
            assert validate_dataset(ds).passed


class TestValidate:
    def test_duplicate_across_classes_flagged(self):
        x = np.array([[0.8, 0.0, 0.6], [0.8, 0.0, 0.6], [-0.8, 0.0, 0.6]])
        ds = Dataset(inputs=x, labels=np.array([1.0, -1.0, -1.0]),
                     mu=0.6, phi=0.1)
        report = validate_dataset(ds)
        assert report.min_cross_class_distance == 0.0
        assert not report.margin_ok
        assert not report.passed

    def test_single_class_margin_vacuous(self):
        x = np.array([[0.8, 0.0, 0.6], [-0.8, 0.0, 0.6]])
        ds = Dataset(inputs=x, labels=np.array([1.0, 1.0]), mu=0.6, phi=0.5)
        report = validate_dataset(ds)
        assert report.min_cross_class_distance == np.inf
        assert report.margin_ok
        assert report.passed

    def test_norm_violation_reported_not_raised(self):
        x = np.array([[1.0, 0.0, 0.6], [-0.8, 0.0, 0.6]])
        ds = Dataset(inputs=x, labels=np.array([1.0, -1.0]), mu=0.6, phi=0.1)
        report = validate_dataset(ds)
        assert not report.norms_ok
        assert not report.passed


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = generate_separated(n=9, d=7, mu=0.35, phi=0.04, seed=13)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.inputs, ds.inputs)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.mu == ds.mu
        assert loaded.phi == ds.phi

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = generate_separated(n=5, d=4, mu=0.5, phi=0.02, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, a)
        save_dataset(ds, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,1\n")
        with pytest.raises(ValueError):
            load_dataset(path)
