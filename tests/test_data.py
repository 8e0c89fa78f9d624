import numpy as np
import pytest

from hyperfed import data as data_mod
from hyperfed.data import (CsvFormatError, corrupt_features,
                           dirichlet_partition, generate_synthetic,
                           inject_label_noise, load_embeddings_csv,
                           save_embeddings_csv)
from hyperfed.numcore import child_rng


class TestGenerateSynthetic:
    def test_zero_spread_collapses_to_means(self):
        ds = generate_synthetic(3, 5, 4, 0.0, child_rng(1, "g"))
        for c in range(3):
            block = ds.features[4 * c:4 * (c + 1)]
            assert np.allclose(block, block[0])

    def test_separated_classes_pass_nearest_mean_oracle(self):
        rng = child_rng(1, "sep")
        ds = generate_synthetic(2, 2, 50, 0.1, rng, separation=5.0)
        means = np.array([ds.features[ds.clean_labels == c + 1].mean(axis=0)
                          for c in range(2)])
        fresh = generate_synthetic(2, 2, 50, 0.1, child_rng(2, "sep"),
                                   separation=5.0)
        d = np.linalg.norm(fresh.features[:, None, :] - means[None], axis=2)
        pred = np.argmin(d, axis=1) + 1
        assert np.mean(pred == fresh.clean_labels) == 1.0

    def test_same_seed_bit_identical(self):
        a = generate_synthetic(3, 4, 10, 1.0, child_rng(7, "d"))
        b = generate_synthetic(3, 4, 10, 1.0, child_rng(7, "d"))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.observed_labels, b.observed_labels)

    def test_clean_equals_observed_initially(self):
        ds = generate_synthetic(4, 6, 5, 1.0, child_rng(1, "c"))
        assert np.array_equal(ds.observed_labels, ds.clean_labels)
        assert not ds.corruption_mask.any()


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        labels = np.repeat([1, 2, 3], 20)
        p = dirichlet_partition(labels, 1, 0.5, child_rng(1, "p"))
        got = np.sort(np.concatenate([p.train_indices[0], p.test_indices[0]]))
        assert np.array_equal(got, np.arange(60))

    def test_huge_alpha_is_near_uniform(self):
        labels = np.repeat(np.arange(1, 5), 250)
        p = dirichlet_partition(labels, 5, 1e6, child_rng(3, "u"))
        for tr, te in zip(p.train_indices, p.test_indices):
            share = (tr.size + te.size) / 1000.0
            assert abs(share - 0.2) <= 0.05 * 0.2 + 0.01

    def test_low_alpha_concentrates(self):
        labels = np.repeat(np.arange(1, 5), 100)
        hits = 0
        for trial in range(20):
            p = dirichlet_partition(labels, 5, 0.1, child_rng(trial, "lo"))
            for tr, te in zip(p.train_indices, p.test_indices):
                idx = np.concatenate([tr, te])
                counts = np.bincount(labels[idx], minlength=5)
                if counts.max() >= 0.7 * idx.size:
                    hits += 1
                    break
        assert hits >= 15  # most draws produce a highly skewed client

    @pytest.mark.parametrize("alpha,seed", [(0.1, 0), (0.5, 1), (1.0, 2),
                                            (5.0, 3), (10.0, 4)])
    def test_disjoint_and_covering(self, alpha, seed):
        labels = np.repeat(np.arange(1, 6), 40)
        p = dirichlet_partition(labels, 4, alpha, child_rng(seed, "cov"))
        allidx = np.concatenate(
            [np.concatenate([tr, te])
             for tr, te in zip(p.train_indices, p.test_indices)])
        assert allidx.size == 200
        assert np.array_equal(np.sort(allidx), np.arange(200))

    def test_test_sample_per_represented_class_when_feasible(self):
        labels = np.repeat(np.arange(1, 4), 50)
        p = dirichlet_partition(labels, 3, 5.0, child_rng(9, "feas"))
        for tr, te in zip(p.train_indices, p.test_indices):
            present = set(labels[np.concatenate([tr, te])])
            for c in present:
                n_total = np.sum(labels[np.concatenate([tr, te])] == c)
                if n_total >= 2:
                    assert np.any(labels[te] == c)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            dirichlet_partition([1, 2], 0, 1.0, child_rng(0, "b"))
        with pytest.raises(ValueError):
            dirichlet_partition([1, 2], 2, 0.0, child_rng(0, "b"))


class TestInjectLabelNoise:
    def test_rate_zero_unchanged(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "n"))
        out = inject_label_noise(ds, 0.0, child_rng(5, "nn"))
        assert np.array_equal(out.observed_labels, ds.observed_labels)

    def test_rate_one_binary_flips_everything(self):
        ds = generate_synthetic(2, 4, 10, 1.0, child_rng(5, "f"))
        out = inject_label_noise(ds, 1.0, child_rng(5, "ff"))
        assert np.all(out.observed_labels != ds.observed_labels)
        assert np.array_equal(out.clean_labels, ds.clean_labels)

    def test_exact_count_and_never_same_label(self):
        ds = generate_synthetic(5, 4, 200, 1.0, child_rng(5, "cnt"))
        out = inject_label_noise(ds, 0.2, child_rng(5, "cc"))
        changed = out.observed_labels != ds.observed_labels
        assert changed.sum() == 200  # floor(0.2 * 1000)
        assert np.array_equal(out.corruption_mask, changed)

    def test_deterministic(self):
        ds = generate_synthetic(4, 4, 50, 1.0, child_rng(5, "det"))
        a = inject_label_noise(ds, 0.3, child_rng(6, "x"))
        b = inject_label_noise(ds, 0.3, child_rng(6, "x"))
        assert np.array_equal(a.observed_labels, b.observed_labels)


class TestCorruptFeatures:
    def test_zero_severity_unchanged(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "cs"))
        out = corrupt_features(ds, 0.5, 0.0, child_rng(5, "c0"))
        assert np.array_equal(out.features, ds.features)

    def test_zero_rate_unchanged(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "cr"))
        out = corrupt_features(ds, 0.0, 2.0, child_rng(5, "c1"))
        assert np.array_equal(out.features, ds.features)

    def test_corrupted_samples_drift_from_class_means(self):
        ds = generate_synthetic(3, 8, 100, 0.5, child_rng(5, "cd"),
                                separation=3.0)
        out = corrupt_features(ds, 0.1, 5.0, child_rng(5, "c2"))
        means = {c: ds.features[ds.clean_labels == c].mean(axis=0)
                 for c in (1, 2, 3)}

        def mean_dist(mask):
            d = [np.linalg.norm(out.features[i] - means[out.clean_labels[i]])
                 for i in np.flatnonzero(mask)]
            return np.mean(d)

        assert mean_dist(out.feature_corrupted) > mean_dist(~out.feature_corrupted)
        assert out.feature_corrupted.sum() == 30

    def test_explicit_indices_hit_exactly_those(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "ci"))
        out = corrupt_features(ds, 0.0, 2.0, child_rng(5, "c3"),
                               indices=[2, 7, 11])
        assert np.array_equal(np.flatnonzero(out.feature_corrupted),
                              [2, 7, 11])
        untouched = np.setdiff1d(np.arange(ds.n), [2, 7, 11])
        assert np.array_equal(out.features[untouched], ds.features[untouched])


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(3, 4, 5, 1.0, child_rng(5, "rt"))
        path = tmp_path / "emb.csv"
        save_embeddings_csv(ds, path)
        back = load_embeddings_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.observed_labels, ds.observed_labels)

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("label,f0,f1\n1,0.5,1.5\n2,-1.0,2.0\n")
        ds = load_embeddings_csv(path)
        assert ds.n == 2 and ds.n_classes == 2
        assert np.allclose(ds.features, [[0.5, 1.5], [-1.0, 2.0]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_embeddings_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("label,f0\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_embeddings_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n1,0.5,1.5\n2,oops,2.0\n")
        with pytest.raises(CsvFormatError, match=":3"):
            load_embeddings_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "nan.csv"
        path.write_text(f"label,f0,f1\n1,0.5,1.5\n2,2.0,{value}\n")
        with pytest.raises(CsvFormatError) as info:
            load_embeddings_csv(path)
        assert str(info.value) == f"{path}:3: non-finite feature {value!r}"

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("label,f0,f1\n1,0.5\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_embeddings_csv(path)
