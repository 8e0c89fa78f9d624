import numpy as np
import pytest

from hyperfed.config import make_config
from hyperfed.data import (CsvFormatError, PartitionError, corrupt_features,
                           dirichlet_partition, generate_synthetic,
                           inject_label_noise, load_embeddings_csv)
from hyperfed.federation import build_dataset
from hyperfed.numcore import child_rng


class TestGenerateSynthetic:
    def test_zero_spread_collapses_to_means(self):
        ds = generate_synthetic(3, 5, 4, 0.0, child_rng(1, "g"), 1.0)
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
        a = generate_synthetic(3, 4, 10, 1.0, child_rng(7, "d"), 1.0)
        b = generate_synthetic(3, 4, 10, 1.0, child_rng(7, "d"), 1.0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.observed_labels, b.observed_labels)

    def test_clean_equals_observed_initially(self):
        ds = generate_synthetic(4, 6, 5, 1.0, child_rng(1, "c"), 1.0)
        assert np.array_equal(ds.observed_labels, ds.clean_labels)
        assert not ds.corruption_mask.any()


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        labels = np.repeat([1, 2, 3], 20)
        p = dirichlet_partition(labels, 1, 0.5, child_rng(1, "p"), 0.2)
        got = np.sort(np.concatenate([p.train_indices[0], p.test_indices[0]]))
        assert np.array_equal(got, np.arange(60))

    def test_huge_alpha_is_near_uniform(self):
        labels = np.repeat(np.arange(1, 5), 250)
        p = dirichlet_partition(labels, 5, 1e6, child_rng(3, "u"), 0.2)
        for tr, te in zip(p.train_indices, p.test_indices):
            share = (tr.size + te.size) / 1000.0
            assert abs(share - 0.2) <= 0.05 * 0.2 + 0.01

    def test_low_alpha_concentrates(self):
        labels = np.repeat(np.arange(1, 5), 100)
        hits = 0
        for trial in range(20):
            p = dirichlet_partition(labels, 5, 0.1, child_rng(trial, "lo"),
                                    0.2)
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
        p = dirichlet_partition(labels, 4, alpha, child_rng(seed, "cov"), 0.2)
        allidx = np.concatenate(
            [np.concatenate([tr, te])
             for tr, te in zip(p.train_indices, p.test_indices)])
        assert allidx.size == 200
        assert np.array_equal(np.sort(allidx), np.arange(200))

    def test_test_sample_per_represented_class_when_feasible(self):
        labels = np.repeat(np.arange(1, 4), 50)
        p = dirichlet_partition(labels, 3, 5.0, child_rng(9, "feas"), 0.2)
        for tr, te in zip(p.train_indices, p.test_indices):
            present = set(labels[np.concatenate([tr, te])])
            for c in present:
                n_total = np.sum(labels[np.concatenate([tr, te])] == c)
                if n_total >= 2:
                    assert np.any(labels[te] == c)

    @pytest.mark.parametrize("per_class,clients", [(1, 2), (10, 16)])
    def test_too_few_samples_for_the_clients(self, per_class, clients):
        labels = np.repeat([1, 2, 3], per_class)
        with pytest.raises(PartitionError, match=(
                f"each of 10 Dirichlet\\(alpha=0.5\\) partitions of "
                f"{labels.size} samples over {clients} clients left a client "
                f"with fewer than 2")):
            dirichlet_partition(labels, clients, 0.5, child_rng(0, "few"), 0.2)

    def test_redraws_until_every_client_has_two(self):
        # 6 samples over 3 clients: seeds 1, 2 and 4 need a redraw
        labels = np.repeat([1, 2, 3], 2)
        for seed in range(5):
            p = dirichlet_partition(labels, 3, 5.0, child_rng(seed, "re"),
                                    0.2)
            assert [tr.size + te.size for tr, te in
                    zip(p.train_indices, p.test_indices)] == [2, 2, 2]


class TestInjectLabelNoise:
    def test_rate_zero_unchanged(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "n"), 1.0)
        out = inject_label_noise(ds, 0.0, child_rng(5, "nn"))
        assert np.array_equal(out.observed_labels, ds.observed_labels)

    def test_rate_one_binary_flips_everything(self):
        ds = generate_synthetic(2, 4, 10, 1.0, child_rng(5, "f"), 1.0)
        out = inject_label_noise(ds, 1.0, child_rng(5, "ff"))
        assert np.all(out.observed_labels != ds.observed_labels)
        assert np.array_equal(out.clean_labels, ds.clean_labels)

    def test_exact_count_and_never_same_label(self):
        ds = generate_synthetic(5, 4, 200, 1.0, child_rng(5, "cnt"), 1.0)
        out = inject_label_noise(ds, 0.2, child_rng(5, "cc"))
        changed = out.observed_labels != ds.observed_labels
        assert changed.sum() == 200  # floor(0.2 * 1000)
        assert np.array_equal(out.corruption_mask, changed)

    @pytest.mark.parametrize("percent", [29, 57, 58])
    def test_count_is_taken_on_the_decimal_rate(self, percent):
        # percent / 100 * 100 is just below percent in float64
        ds = generate_synthetic(4, 3, 25, 1.0, child_rng(5, "dec"), 1.0)
        out = inject_label_noise(ds, percent / 100, child_rng(5, "dd"))
        assert (out.observed_labels != ds.observed_labels).sum() == percent

    def test_deterministic(self):
        ds = generate_synthetic(4, 4, 50, 1.0, child_rng(5, "det"), 1.0)
        a = inject_label_noise(ds, 0.3, child_rng(6, "x"))
        b = inject_label_noise(ds, 0.3, child_rng(6, "x"))
        assert np.array_equal(a.observed_labels, b.observed_labels)


class TestCorruptFeatures:
    def test_zero_severity_unchanged(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "cs"), 1.0)
        out = corrupt_features(ds, [0, 5, 9], 0.0, child_rng(5, "c0"))
        assert np.array_equal(out.features, ds.features)

    def test_zero_rate_unchanged(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "cr"), 1.0)
        out = corrupt_features(ds, [], 2.0, child_rng(5, "c1"))
        assert np.array_equal(out.features, ds.features)
        assert not out.feature_corrupted.any()

    def test_corrupted_samples_drift_from_class_means(self):
        ds = generate_synthetic(3, 8, 100, 0.5, child_rng(5, "cd"),
                                separation=3.0)
        rng = child_rng(5, "c2")
        out = corrupt_features(ds, rng.choice(ds.n, size=30, replace=False),
                               5.0, rng)
        means = {c: ds.features[ds.clean_labels == c].mean(axis=0)
                 for c in (1, 2, 3)}

        def mean_dist(mask):
            d = [np.linalg.norm(out.features[i] - means[out.clean_labels[i]])
                 for i in np.flatnonzero(mask)]
            return np.mean(d)

        assert (mean_dist(out.feature_corrupted)
                > mean_dist(~out.feature_corrupted))
        assert out.feature_corrupted.sum() == 30

    @pytest.mark.parametrize("percent", [29, 57, 58])
    def test_count_is_taken_on_the_decimal_rate(self, percent):
        # build_dataset picks the rows: percent / 100 * 100 is just below
        # percent in float64
        ds = build_dataset(make_config(dict(
            seed=5, classes=4, feature_dim=3, samples_per_class=25,
            corruption_rate=percent / 100, corruption_severity=2.0)))
        assert ds.feature_corrupted.sum() == percent

    def test_explicit_indices_hit_exactly_those(self):
        ds = generate_synthetic(3, 4, 10, 1.0, child_rng(5, "ci"), 1.0)
        out = corrupt_features(ds, [2, 7, 11], 2.0, child_rng(5, "c3"))
        assert np.array_equal(np.flatnonzero(out.feature_corrupted),
                              [2, 7, 11])
        untouched = np.setdiff1d(np.arange(ds.n), [2, 7, 11])
        assert np.array_equal(out.features[untouched], ds.features[untouched])


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(3, 4, 5, 1.0, child_rng(5, "rt"), 1.0)
        path = tmp_path / "emb.csv"
        lines = ["label,f0,f1,f2,f3"] + [
            ",".join([str(label)] + [repr(float(v)) for v in row])
            for label, row in zip(ds.observed_labels, ds.features)]
        path.write_text("\n".join(lines) + "\n")
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

    def test_directory_names_file(self, tmp_path):
        with pytest.raises(CsvFormatError) as info:
            load_embeddings_csv(tmp_path)
        assert str(info.value) == f"{tmp_path}: Is a directory"

    def test_not_utf8_names_file_line_and_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"label,f0,f1\n1,0.5,1.5\n2,\xff,2.0\n")
        with pytest.raises(CsvFormatError) as info:
            load_embeddings_csv(path)
        assert str(info.value) == \
            f"{path}:3: not UTF-8 text: byte 24 is 0xff"

    def test_not_utf8_after_a_bom_counts_bytes_from_the_first(self,
                                                              tmp_path):
        path = tmp_path / "bom-latin1.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,f0,f1\n1,0.5,1.5\n2,\xff,2.0\n")
        with pytest.raises(CsvFormatError) as info:
            load_embeddings_csv(path)
        assert str(info.value) == \
            f"{path}:3: not UTF-8 text: byte 27 is 0xff"

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("label,f0,f1\n1,0.5\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_embeddings_csv(path)
