import dataclasses
import hashlib
import math
import os
import threading

import numpy as np
import pytest

from hyperfed import data as data_mod
from hyperfed import ec_block, federation, ue_block
from hyperfed.config import make_config
from hyperfed.federation import (ClientState, ClientUpdate, ServerState,
                                 aggregate, batch_prototypes, build_clients,
                                 build_dataset, compute_prototypes, init_model,
                                 init_server, local_train_epoch, model_layout,
                                 prototype_loss, push_global, run_experiment,
                                 run_round, select_clients, shared_tensors)
from hyperfed.numcore import (LinearSolveError, Params, child_rng,
                              mlp_backward, mlp_forward, softmax_rows)

SMALL = dict(classes=3, feature_dim=6, samples_per_class=30, client_count=4,
             batch_size=8, backbone_dim=8, compact_dim=6, relational_dim=6,
             estimator_hidden=6, expr_dim=6, neighbor_count=3,
             ec_neighbor_count=3, rounds=2, separation=2.0, spread=0.8)


# Six clients, three selected per round, with refinement that fires on
# ue_ec: small enough for many runs, big enough for two workers.
PARALLEL = dict(client_count=6, rounds=3, participation=0.5, noise_rate=0.3,
                delta=0.2, prop_lambda=0.5, eta=0.6, zeta=0.8, separation=4.0,
                spread=0.5, learning_rate=0.3, seed=5)


def small_cfg(**kw):
    return make_config({**SMALL, **kw})


def make_world(**kw):
    cfg = small_cfg(**kw)
    ds = build_dataset(cfg)
    part = data_mod.dirichlet_partition(ds.clean_labels, cfg.client_count,
                                        cfg.dirichlet_alpha,
                                        child_rng(cfg.seed, "partition"))
    clients = build_clients(cfg, ds, part)
    server = init_server(cfg, ds)
    for c in clients:
        push_global(server, c)
    return cfg, ds, clients, server


class TestPrototypes:
    def test_single_sample_mean(self):
        protos, present, counts = batch_prototypes(
            np.array([[2.0, 4.0]]), [1], 2)
        assert np.array_equal(protos[0], [2.0, 4.0])
        assert present[0] and not present[1]

    def test_two_sample_mean(self):
        protos, _, _ = batch_prototypes(
            np.array([[1.0, 3.0], [3.0, 5.0]]), [1, 1], 1)
        assert np.array_equal(protos[0], [2.0, 4.0])

    def test_absent_class_flagged(self):
        _, present, _ = batch_prototypes(np.ones((2, 2)), [1, 1], 3)
        assert list(present) == [True, False, False]

    def test_bit_identical_to_mask_loop_oracle(self):
        def oracle(e, labels, n_classes):
            protos = np.zeros((n_classes, e.shape[1]))
            counts = np.zeros(n_classes, dtype=np.int64)
            for j in range(1, n_classes + 1):
                rows = labels == j
                counts[j - 1] = rows.sum()
                if counts[j - 1]:
                    protos[j - 1] = e[rows].mean(axis=0)
            return protos, counts > 0, counts

        for seed in range(300):
            rng = child_rng(seed, "protos")
            n_classes = int(rng.integers(1, 8))
            n = int(rng.integers(1, 70))
            e = rng.standard_normal((n, int(rng.integers(1, 20))))
            e *= 10.0 ** rng.integers(-3, 4, size=e.shape)
            labels = rng.integers(1, n_classes + 1, size=n)
            got = batch_prototypes(e, labels, n_classes)
            for g, w in zip(got, oracle(e, labels, n_classes)):
                assert np.array_equal(g, w), seed


class TestPrototypeLoss:
    def test_equal_prototypes_zero(self):
        p = np.array([[1.0, 2.0]])
        loss, grad, ok = prototype_loss(p, [True], p.copy(), [True])
        assert ok and loss == 0.0 and np.all(grad == 0.0)

    def test_hand_l1(self):
        loss, grad, _ = prototype_loss(np.array([[1.0, 3.0]]), [True],
                                       np.array([[3.0, 5.0]]), [True])
        assert loss == pytest.approx(4.0)
        assert np.array_equal(grad, [[-1.0, -1.0]])

    def test_absent_class_skipped_with_renormalization(self):
        local = np.array([[1.0, 1.0], [0.0, 0.0]])
        glob = np.array([[2.0, 2.0], [9.0, 9.0]])
        loss, grad, _ = prototype_loss(local, [True, False], glob,
                                       [True, True])
        assert loss == pytest.approx(2.0)  # only class 1, (1+1)/1
        assert np.all(grad[1] == 0.0)

    def test_no_overlap_warns_zero(self):
        loss, grad, ok = prototype_loss(np.ones((2, 2)), [True, False],
                                        np.ones((2, 2)), [False, True])
        assert not ok and loss == 0.0 and np.all(grad == 0.0)


def _updates_from(params_list, counts, protos=None, present=None):
    n_c = 2
    updates = []
    for i, (p, n) in enumerate(zip(params_list, counts)):
        updates.append(ClientUpdate(
            client_id=i, shared=p,
            prototypes=protos[i] if protos else np.zeros((n_c, 2)),
            proto_present=present[i] if present else np.zeros(n_c, bool),
            n_samples=n))
    return updates


def _blank_server(n_classes=2, dim=2, n_shared=1):
    return ServerState(shared=np.zeros(n_shared),
                       prototypes=np.zeros((n_classes, dim)),
                       proto_present=np.zeros(n_classes, bool))


def head_views(layout, head):
    """name -> view of a shared head vector, by the model layout."""
    return {name: head[o:o + math.prod(shape)].reshape(shape)
            for name, (o, shape) in layout.slots.items()
            if o < layout.n_shared}


def dict_aggregate_oracle(updates, mode):
    """The shared part of aggregation as the per-name dict store did it:
    one weighted sum over the clients in id order for each tensor name."""
    updates = sorted(updates, key=lambda u: u.client_id)
    names = sorted(updates[0].shared)
    if mode == "uniform":
        weights = np.full(len(updates), 1.0 / len(updates))
    else:
        counts = np.array([u.n_samples for u in updates], dtype=np.float64)
        weights = counts / counts.sum()
    return {k: sum(w * u.shared[k] for w, u in zip(weights, updates))
            for k in names}


class TestAggregate:
    def test_single_client_identity(self):
        shared = np.array([1.0, 2.0])
        out = aggregate(_blank_server(n_shared=2), _updates_from([shared], [5]),
                        "data-size")
        assert np.array_equal(out.shared, shared)

    def test_uniform_prototype_mean(self):
        protos = [np.array([[1.0, 3.0], [0.0, 0.0]]),
                  np.array([[3.0, 5.0], [0.0, 0.0]])]
        present = [np.array([True, False]), np.array([True, False])]
        out = aggregate(_blank_server(),
                        _updates_from([np.zeros(1)] * 2, [1, 1],
                                      protos, present), "uniform")
        assert np.array_equal(out.prototypes[0], [2.0, 4.0])
        assert not out.proto_present[1]

    def test_data_size_weighted_hand_check(self):
        shared = [np.array([1.0]), np.array([4.0]), np.array([7.0])]
        out = aggregate(_blank_server(), _updates_from(shared, [1, 2, 1]),
                        "data-size")
        assert out.shared[0] == pytest.approx(4.0, abs=1e-12)

    def test_identical_updates_unchanged_uniform(self):
        shared = np.array([1.5, -2.5])
        ups = _updates_from([shared.copy() for _ in range(3)], [3, 3, 3])
        out = aggregate(_blank_server(n_shared=2), ups, "uniform")
        assert np.allclose(out.shared, shared, atol=1e-15)

    def test_permutation_invariance(self):
        rng = child_rng(20, "perm")
        shared = [rng.standard_normal(3) for _ in range(4)]
        ups = _updates_from(shared, [1, 2, 3, 4])
        server = _blank_server(n_shared=3)
        a = aggregate(server, ups, "data-size")
        b = aggregate(server, list(reversed(ups)), "data-size")
        assert np.array_equal(a.shared, b.shared)

    def test_prototype_subset_renormalization_weights_sum_to_one(self):
        protos = [np.array([[2.0, 2.0], [0.0, 0.0]]),
                  np.array([[6.0, 6.0], [0.0, 0.0]])]
        present = [np.array([True, False]), np.array([True, False])]
        out = aggregate(_blank_server(),
                        _updates_from([np.zeros(1)] * 2, [1, 3],
                                      protos, present), "data-size")
        # weights renormalized to 1/4, 3/4 within contributors
        assert np.allclose(out.prototypes[0], [5.0, 5.0])

    def test_shape_mismatch_is_protocol_error(self):
        ups = _updates_from([np.zeros(2), np.zeros(3)], [1, 1])
        with pytest.raises(federation.ProtocolError):
            aggregate(_blank_server(n_shared=2), ups, "uniform")

    def test_private_tensor_rejected(self):
        # a whole model vector carries the private tail
        params = init_model(model_layout(small_cfg()), child_rng(20, "priv"))
        server = _blank_server()
        server.shared = shared_tensors(params)
        ups = _updates_from([params.vector.copy()], [1])
        with pytest.raises(federation.ProtocolError):
            aggregate(server, ups, "uniform")

    @pytest.mark.parametrize("mode", ["uniform", "data-size"])
    def test_bit_identical_to_dict_oracle(self, mode):
        layout = model_layout(small_cfg())
        n = layout.n_shared
        zeros = 0
        for seed in range(40):
            rng = child_rng(seed, "agg-oracle", mode)
            k = int(rng.integers(1, 8))
            vectors = rng.standard_normal((k, n))
            vectors *= 10.0 ** rng.integers(-4, 5, size=vectors.shape)
            vectors[rng.random(vectors.shape) < 0.1] = -0.0
            vectors[rng.random(vectors.shape) < 0.05] = 0.0
            zeros += int(np.sum(np.signbit(vectors) & (vectors == 0.0)))
            updates = _updates_from(list(vectors),
                                    rng.integers(1, 500, size=k))
            for u, i in zip(updates, rng.permutation(k)):
                u.client_id = int(i)
            got = head_views(layout, aggregate(_blank_server(n_shared=n),
                                               updates, mode).shared)
            want = dict_aggregate_oracle(
                [ClientUpdate(u.client_id, head_views(layout, u.shared),
                              None, None, u.n_samples) for u in updates],
                mode)
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name]), (seed, name)
                assert np.array_equal(np.signbit(got[name]),
                                      np.signbit(want[name])), (seed, name)
        assert zeros > 0


class TestLocalTraining:
    def test_zero_learning_rate_keeps_params_but_relabels(self):
        cfg, ds, clients, server = make_world(learning_rate=0.0,
                                              method="ue_ec", noise_rate=0.3)
        client = clients[0]
        before = Params(client.params.layout, client.params.vector.copy())
        labels_before = client.working_labels.copy()
        m = local_train_epoch(client, ds, server, cfg,
                              child_rng(0, "t"))
        after = client.params
        for k in before.views:
            assert np.array_equal(before[k], after[k]), k
        # relabeling still executed (the pass ran; changes may persist)
        assert m.relabel_changes is not None
        if m.relabel_changes:
            assert not np.array_equal(labels_before, client.working_labels)

    def test_baseline_matches_plain_ce_sgd_oracle(self):
        cfg, ds, clients, server = make_world(method="baseline", lambda1=0.0,
                                              lambda2=0.0, learning_rate=0.05)
        client = clients[0]
        params0 = Params(client.params.layout, client.params.vector.copy())
        rng = child_rng(77, "oracle")
        idx = client.train_idx[child_rng(77, "oracle").permutation(
            client.train_idx.size)]
        local_train_epoch(client, ds, server, cfg, rng)

        # straight-line reference: same shuffle, plain softmax-CE SGD
        ref = params0
        for i in range(0, idx.size, cfg.batch_size):
            b = idx[i:i + cfg.batch_size]
            x, labels = ds.features[b], ds.observed_labels[b]
            deep, bc = mlp_forward(ref, "backbone", x)
            e, ec_cache = mlp_forward(ref, "ec.expr", deep)
            logits, cc = mlp_forward(ref, "ec.classifier", e)
            p = softmax_rows(logits)
            dz = p.copy()
            dz[np.arange(b.size), labels - 1] -= 1.0
            dz /= b.size
            g = Params(ref.layout)
            ge = mlp_backward(ref, "ec.classifier", cc, dz, g)
            gdeep = mlp_backward(ref, "ec.expr", ec_cache, ge, g)
            mlp_backward(ref, "backbone", bc, gdeep, g)
            for k in ref.views:   # one tensor at a time
                if not k.startswith("ue."):
                    ref[k][...] = ref[k] + -cfg.learning_rate * g[k]
        got = client.params.views
        want = ref.views
        for k in want:
            if k.startswith("ue."):
                continue
            assert np.allclose(got[k], want[k], atol=1e-12), k

    def test_deterministic_updates(self):
        results = []
        for _ in range(2):
            cfg, ds, clients, server = make_world(method="ue_ec",
                                                  noise_rate=0.2)
            local_train_epoch(clients[1], ds, server, cfg,
                              child_rng(5, "det"))
            results.append(clients[1].params.views)
        for k in results[0]:
            assert np.array_equal(results[0][k], results[1][k]), k

    def test_epoch_touches_each_train_sample_once(self, monkeypatch):
        cfg, ds, clients, server = make_world(method="ue")
        client = clients[2]
        seen = []
        orig = federation._batch_step

        def spy(client_, ds_, batch_idx, *args, **kw):
            seen.extend(batch_idx.tolist())
            return orig(client_, ds_, batch_idx, *args, **kw)

        monkeypatch.setattr(federation, "_batch_step", spy)
        local_train_epoch(client, ds, server, cfg, child_rng(0, "touch"))
        assert sorted(seen) == sorted(client.train_idx.tolist())


def relabel_batch_oracle(client, dataset, batch_idx, cfg):
    """Reference relabel pass on a single batch, unstacked: persists
    refined labels and returns the change log as dataset indices."""
    refine = ec_block.RefineConfig(cfg.delta)
    params = client.params
    x = dataset.features[batch_idx]
    labels = client.working_labels[batch_idx]
    deep, _ = mlp_forward(params, "backbone", x)
    ue_out, _ = ue_block.ue_forward(deep, params, cfg)
    if not np.any(ue_out.beta >= refine.threshold):
        return []  # no sample may be refined, so propagation cannot matter
    logits, e, _ = ec_block.ec_forward(deep, params)
    y = ec_block.one_hot(labels, dataset.n_classes)
    scores = ec_block.label_propagate(e, y, cfg)
    _, l_prop = ec_block.scores_to_labels(scores)
    _, l_pred = ec_block.scores_to_labels(logits)
    refined, changes = ec_block.refine_labels(ue_out.beta, l_prop, l_pred,
                                              labels, refine)
    if cfg.persist_refined:
        client.working_labels[batch_idx] = refined
    return [(int(batch_idx[i]), old, new) for i, old, new in changes]


class TestRelabelGate:
    def _batch(self, **kw):
        cfg, ds, clients, server = make_world(method="ue_ec", noise_rate=0.3,
                                              **kw)
        client = clients[0]
        batch_idx = client.train_idx[:cfg.batch_size]
        deep, _ = mlp_forward(client.params, "backbone",
                              ds.features[batch_idx])
        beta = ue_block.ue_forward(deep, client.params, cfg)[0].beta
        return cfg, ds, client, batch_idx, beta

    def test_no_candidate_skips_propagation(self, monkeypatch):
        cfg, ds, client, batch_idx, beta = self._batch()
        cfg = dataclasses.replace(cfg, delta=(beta.max() + 1.0) / 2.0)

        def forbidden(*args, **kw):
            raise AssertionError("label_propagate called without candidate")

        monkeypatch.setattr(ec_block, "label_propagate", forbidden)
        labels_before = client.working_labels.copy()
        assert federation._relabel_pass(client, ds, batch_idx, cfg) == []
        assert np.array_equal(client.working_labels, labels_before)

    def test_candidate_runs_propagation(self, monkeypatch):
        cfg, ds, client, batch_idx, beta = self._batch()
        cfg = dataclasses.replace(cfg, delta=float(beta.max()))
        calls = []
        orig = ec_block.label_propagate

        def spy(*args, **kw):
            calls.append(1)
            return orig(*args, **kw)

        monkeypatch.setattr(ec_block, "label_propagate", spy)
        federation._relabel_pass(client, ds, batch_idx, cfg)
        assert calls == [1]

    def test_propagation_sees_only_candidate_batches(self, monkeypatch):
        cfg, ds, clients, server = make_world(method="ue_ec", noise_rate=0.3,
                                              batch_size=4)
        client = max(clients, key=lambda c: c.train_idx.size)
        n_batches = client.train_idx.size // cfg.batch_size
        assert n_batches >= 3
        idx = client.train_idx[:n_batches * cfg.batch_size]
        deep, _ = mlp_forward(client.params, "backbone",
                              ds.features[idx.reshape(n_batches, -1)])
        peaks = ue_block.ue_forward(deep, client.params, cfg)[0] \
            .beta.max(axis=-1)
        # strictly between the two highest batch peaks: one candidate batch
        top = np.sort(peaks)[-2:]
        cfg = dataclasses.replace(cfg, delta=float(top.mean()))
        seen = []
        orig = ec_block.label_propagate

        def spy(features, y, cfg_):
            seen.append(np.array(features))
            return orig(features, y, cfg_)

        monkeypatch.setattr(ec_block, "label_propagate", spy)
        federation._relabel_pass(client, ds, idx, cfg)
        assert len(seen) == 1 and seen[0].shape[0] == 1
        b = int(np.argmax(peaks))
        want = ec_block.ec_forward(deep[b], client.params)[1]
        assert np.array_equal(seen[0][0], want)


def _relabel_case(seed):
    """A random client state for the relabel pass, with its config."""
    rng = child_rng(seed, "relabel-case")
    n_classes = int(rng.integers(2, 5))
    cfg = small_cfg(
        classes=n_classes, batch_size=int(rng.integers(2, 11)),
        neighbor_count=int(rng.integers(1, 6)),
        ec_neighbor_count=int(rng.integers(1, 8)),
        bandwidth_mode="fixed" if seed % 4 == 1 else "median",
        fixed_sigma=float(rng.uniform(0.3, 3.0)),
        prop_lambda=float(rng.uniform(0.02, 1.0)),
        persist_refined=seed % 3 != 2, method="ue_ec")
    n = 80
    x = rng.standard_normal((n, cfg.feature_dim))
    if seed % 5 == 0:
        x[rng.integers(0, n, size=n // 3)] = x[0]   # duplicate rows
    elif seed % 5 == 1:
        x = np.round(x)                              # ties
    ds = data_mod.Dataset(features=x, observed_labels=np.ones(n, np.int64),
                          clean_labels=np.ones(n, np.int64),
                          n_classes=n_classes)
    idx = rng.permutation(n)[:int(rng.integers(1, n))]
    client = ClientState(id=0, train_idx=idx, test_idx=idx[:0],
                         params=init_model(model_layout(cfg), rng),
                         working_labels=rng.integers(1, n_classes + 1, n))
    # a threshold between two batch peaks leaves stacks with candidates
    # in some batches only; other seeds go above or below every peak
    betas = []
    for i in range(0, idx.size, cfg.batch_size):
        deep, _ = mlp_forward(client.params, "backbone",
                              x[idx[i:i + cfg.batch_size]])
        betas.append(ue_block.ue_forward(deep, client.params,
                                         cfg)[0].beta.max())
    peaks = np.sort(betas)
    pick = rng.integers(-1, peaks.size + 1)
    if pick < 0:
        threshold = peaks[-1] + (1.0 - peaks[-1]) / 2.0
    elif pick == peaks.size:
        threshold = peaks[0] / 2.0
    else:
        threshold = peaks[pick]
    return dataclasses.replace(cfg, delta=float(threshold)), ds, client, betas


class TestRelabelPass:
    def test_stacked_pass_matches_batch_oracle(self):
        seen = dict(ragged=0, clamped_last=0, no_candidate=0, some=0,
                    all_=0, changed=0, fixed=0, kept=0, duplicates=0)
        for seed in range(240):
            cfg, ds, client, betas = _relabel_case(seed)
            idx = client.train_idx
            want_client = ClientState(0, idx, idx[:0], client.params,
                                      client.working_labels.copy())
            want = []
            for i in range(0, idx.size, cfg.batch_size):
                want += relabel_batch_oracle(
                    want_client, ds, idx[i:i + cfg.batch_size], cfg)
            got = federation._relabel_pass(client, ds, idx, cfg)
            assert got == want, seed
            assert np.array_equal(client.working_labels,
                                  want_client.working_labels), seed

            last = idx.size % cfg.batch_size
            fires = np.asarray(betas) >= cfg.delta
            seen["ragged"] += last > 0
            seen["clamped_last"] += 0 < last <= cfg.ec_neighbor_count
            seen["no_candidate"] += not fires.any()
            seen["some"] += fires.any() and not fires.all()
            seen["all_"] += fires.all()
            seen["changed"] += bool(got)
            seen["fixed"] += cfg.bandwidth_mode == "fixed"
            seen["kept"] += bool(got) and not cfg.persist_refined
            seen["duplicates"] += seed % 5 == 0
        assert min(seen.values()) > 0, seen


class TestEvaluationMemo:
    @pytest.mark.parametrize("broadcast_all", [False, True])
    def test_rows_match_full_reevaluation(self, monkeypatch, broadcast_all):
        cfg = small_cfg(rounds=3, method="ue_ec", noise_rate=0.2,
                        participation=0.5, broadcast_all=broadcast_all)
        want = []   # per round: [(test, pooled) for every client]
        calls = []
        orig_round, orig_eval = federation.run_round, federation.evaluate

        def evaluate_all(clients, dataset):
            pooled = np.concatenate([c.test_idx for c in clients])
            return [(orig_eval(c.params, dataset, c.test_idx),
                     orig_eval(c.params, dataset, pooled)) for c in clients]

        def round_spy(server, clients, dataset, cfg_, *args):
            if not want:
                want.append(evaluate_all(clients, dataset))
            out = orig_round(server, clients, dataset, cfg_, *args)
            want.append(evaluate_all(clients, dataset))
            return out

        def eval_spy(*args, **kw):
            calls.append(1)
            return orig_eval(*args, **kw)

        monkeypatch.setattr(federation, "run_round", round_spy)
        monkeypatch.setattr(federation, "evaluate", eval_spy)
        rows, _, _ = run_experiment(cfg)
        got = {(r[0], r[1], r[2]): r[3] for r in rows if r[1] >= 0}
        assert len(want) == cfg.rounds + 1
        for t, accs in enumerate(want):
            for k, (test, pooled) in enumerate(accs):
                assert got[t, k, "test"] == test, (t, k)
                assert got[t, k, "pooled"] == pooled, (t, k)
        full = 2 * cfg.client_count * (cfg.rounds + 1)
        assert (len(calls) == full) == broadcast_all


class TestRoundLoop:
    def test_selection_count_and_determinism(self):
        a = select_clients(3, 4, 10, 0.5)
        b = select_clients(3, 4, 10, 0.5)
        assert len(a) == 5 and a == b
        assert all(0 <= k < 10 for k in a)

    def test_single_client_full_participation(self):
        cfg, ds, clients, server = make_world(client_count=1,
                                              participation=1.0,
                                              dirichlet_alpha=1e6)
        new_server, selected, _ = run_round(server, clients, ds, cfg)
        assert selected == [0]
        got = shared_tensors(clients[0].params)
        assert np.array_equal(new_server.shared, got)

    def test_push_global_preserves_private(self):
        cfg, ds, clients, server = make_world()
        client = clients[0]
        n = client.params.layout.n_shared
        priv_before = client.params.vector[n:].copy()
        push_global(server, client)
        priv_after = client.params.vector[n:]
        assert np.array_equal(priv_before, priv_after)

    def test_private_params_survive_rounds_bitwise(self):
        cfg, ds, clients, server = make_world(method="ue", rounds=3)
        for _ in range(3):
            server, selected, _ = run_round(server, clients, ds, cfg)
            n = clients[0].params.layout.n_shared
            snap = {c.id: c.params.vector[n:].copy() for c in clients}
            # aggregation + next push must not touch private tensors
            for c in clients:
                push_global(server, c)
            for c in clients:
                assert np.array_equal(snap[c.id], c.params.vector[n:])

    def test_round_size_rounds_up_the_decimal_product(self):
        # a float product can land just above a whole number:
        # 0.07 * 100 == 7.000000000000001, and 13 such pairs here
        for p in range(1, 101):
            for n in range(1, 101):
                assert federation.round_size(p / 100, n) == -(-p * n // 100), \
                    (p, n)
        assert federation.round_size(1 / 3, 3) == 1
        cfg = small_cfg(client_count=100, participation=0.07)
        assert len(select_clients(cfg.seed, 0, cfg.client_count,
                                  cfg.participation)) == 7


class TestRunExperiment:
    def test_zero_rounds_logs_initial_evaluation_only(self):
        cfg = small_cfg(rounds=0)
        rows, _, _ = run_experiment(cfg)
        assert {r[0] for r in rows} == {0}
        assert any(r[1] == -1 for r in rows)

    def test_byte_identical_metrics(self, tmp_path):
        cfg = small_cfg(rounds=2, method="ue_ec", noise_rate=0.2, seed=3)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_coupled_corruption_hits_only_mislabeled(self):
        cfg = small_cfg(noise_rate=0.2, corrupt_mislabeled=True,
                        corruption_rate=0.5, corruption_severity=2.0)
        ds = build_dataset(cfg)
        flipped = ds.observed_labels != ds.clean_labels
        assert ds.feature_corrupted.sum() == round(0.5 * flipped.sum())
        assert np.all(flipped[ds.feature_corrupted])

    def test_relabel_warmup_delays_refinement(self):
        cfg = small_cfg(rounds=2, method="ue_ec", noise_rate=0.3,
                        delta=0.2, prop_lambda=0.5, relabel_start_round=99)
        rows, clients, _ = run_experiment(cfg)
        assert all(r[9] in (None, 0) for r in rows if r[2] == "test")
        for c in clients:
            assert np.array_equal(c.working_labels,
                                  build_dataset(cfg).observed_labels)

    def test_easy_task_learns(self):
        cfg = small_cfg(rounds=15, method="baseline", separation=4.0,
                        spread=0.3, dirichlet_alpha=5.0, learning_rate=0.1)
        rows, _, _ = run_experiment(cfg)
        assert federation.final_mean_accuracy(rows) >= 0.9


def use_cpus(monkeypatch, n):
    """Make n CPUs usable as far as run_experiment can tell, with BLAS on
    one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


class TestParallelRounds:
    @pytest.mark.parametrize("kw", [
        dict(method="baseline"),
        dict(method="baseline", broadcast_all=True),
        dict(method="ue_ec"),
        dict(method="ue_ec", broadcast_all=True),
        dict(method="ue_ec", local_epochs=2),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_same_bits_on_one_two_three_cpus(self, monkeypatch, tmp_path,
                                             kw):
        cfg = small_cfg(**{**PARALLEL, **kw})
        runs = []
        for n in (1, 2, 3):
            use_cpus(monkeypatch, n)
            assert federation.worker_count(cfg) == n - 1
            rows, clients, _ = run_experiment(cfg, out_dir=tmp_path / str(n))
            runs.append(((tmp_path / str(n) / "metrics.csv").read_bytes(),
                         clients))
        if cfg.method == "ue_ec":
            assert sum(r[9] or 0 for r in rows if r[2] == "test") > 0
        csv, want = runs[0]
        for got_csv, got in runs[1:]:
            assert got_csv == csv
            for a, b in zip(want, got):
                assert np.array_equal(a.working_labels, b.working_labels)
                ta, tb = a.params.views, b.params.views
                assert ta.keys() == tb.keys()
                for name in ta:
                    assert np.array_equal(ta[name], tb[name]), (a.id, name)

    @pytest.mark.parametrize("env,cpus,want", [
        ({}, 2, 0),
        ({"OPENBLAS_NUM_THREADS": "x"}, 2, 0),
        ({"OMP_NUM_THREADS": "1"}, 3, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 0),
    ])
    def test_one_process_per_blas_pool(self, monkeypatch, env, cpus, want):
        use_cpus(monkeypatch, cpus)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert federation.worker_count(small_cfg(**PARALLEL)) == want

    def test_no_fork_beside_other_threads(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        cfg = small_cfg(**PARALLEL)
        assert federation.worker_count(cfg) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert federation.worker_count(cfg) == 0
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
    def test_no_fork_where_the_platform_lacks_it(self, monkeypatch, tmp_path,
                                                  missing):
        def no_fork():
            raise AssertionError("forked a worker")

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.delattr(os, missing)
        cfg = small_cfg(**PARALLEL, method="ue_ec")
        assert federation.worker_count(cfg) == 0
        run_experiment(cfg, out_dir=tmp_path)
        got = hashlib.sha256(
            (tmp_path / "metrics.csv").read_bytes()).hexdigest()
        assert got == GOLDEN_METRICS_SHA256["ue_ec"]

    def test_split_longest_first(self):
        sizes = [5, 9, 2, 9, 7]
        clients = [ClientState(id=k, train_idx=np.arange(n), test_idx=None,
                               params=None, working_labels=None)
                   for k, n in enumerate(sizes)]
        shares = federation.split_longest_first([0, 1, 2, 3, 4], clients, 2)
        assert shares == [[1, 4], [3, 0, 2]]
        assert federation.split_longest_first([2], clients, 3) == [[2], [],
                                                                    []]

    @pytest.mark.parametrize("where", ["main", "worker"])
    @pytest.mark.parametrize("error", [federation.ProtocolError,
                                       LinearSolveError])
    def test_error_reraised_with_type_and_message(self, monkeypatch, where,
                                                  error):
        parent = os.getpid()
        orig = federation.local_train_epoch

        def epoch(client, *args, **kw):
            if (os.getpid() != parent) == (where == "worker"):
                raise error(f"injected in the {where} process")
            return orig(client, *args, **kw)

        monkeypatch.setattr(federation, "local_train_epoch", epoch)
        use_cpus(monkeypatch, 2)
        with pytest.raises(error) as info:
            run_experiment(small_cfg(**PARALLEL, method="ue"))
        assert type(info.value) is error
        assert str(info.value) == f"injected in the {where} process"
        if where == "worker":  # the worker's traceback is the cause
            assert "local_train_epoch" in str(info.value.__cause__)

    def test_keyboard_interrupt_reaps_workers(self, monkeypatch):
        def epoch(*args, **kw):
            raise KeyboardInterrupt

        monkeypatch.setattr(federation, "local_train_epoch", epoch)
        use_cpus(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(small_cfg(**PARALLEL, method="baseline"))

    def test_worker_that_dies_is_a_protocol_error(self, monkeypatch):
        parent = os.getpid()
        orig = federation.local_train_epoch

        def epoch(*args, **kw):
            if os.getpid() != parent:
                os._exit(3)
            return orig(*args, **kw)

        monkeypatch.setattr(federation, "local_train_epoch", epoch)
        use_cpus(monkeypatch, 2)
        with pytest.raises(federation.ProtocolError, match="is gone"):
            run_experiment(small_cfg(**PARALLEL, method="baseline"))


def _round_records(monkeypatch, cpus, memo, **kw):
    """Each round's records from run_round on cpus faked CPUs, for a run
    in which every round trains clients in this process and, with two
    CPUs, in a worker too; and the clients after the last round."""
    use_cpus(monkeypatch, cpus)
    cfg, ds, clients, server = make_world(**{**PARALLEL, **kw})
    rounds = []
    with federation.Workers(clients, ds, cfg) as workers:
        assert len(workers.conns) == cpus - 1
        for _ in range(cfg.rounds):
            selected = select_clients(cfg.seed, server.round, len(clients),
                                      cfg.participation)
            shares = federation.split_longest_first(selected, clients, cpus)
            assert all(shares)
            server, got, records = run_round(server, clients, ds, cfg,
                                             workers, memo)
            assert got == selected
            assert [r.client_id for r in records] == selected
            rounds.append(records)
    return rounds, clients


def _same_metrics(a, b):
    pairs = zip(dataclasses.astuple(a), dataclasses.astuple(b))
    return all(x == y or (x != x and y != y) for x, y in pairs)  # nan


class TestClientRound:
    @pytest.mark.parametrize("memo,broadcast_all", [
        (True, False), (False, False), (True, True), (False, True)])
    def test_one_record_per_selected_client_from_both_processes(
            self, monkeypatch, memo, broadcast_all):
        kw = dict(method="ue_ec", broadcast_all=broadcast_all)
        want, want_clients = _round_records(monkeypatch, 1,
                                            {} if memo else None, **kw)
        got, got_clients = _round_records(monkeypatch, 2,
                                          {} if memo else None, **kw)
        measured = memo and not broadcast_all
        for want_records, got_records in zip(want, got, strict=True):
            for a, b in zip(want_records, got_records, strict=True):
                assert type(b) is federation.ClientRound
                assert b.client_id == a.client_id
                assert _same_metrics(b.metrics, a.metrics), b.client_id
                assert np.array_equal(b.prototypes, a.prototypes)
                assert np.array_equal(b.proto_present, a.proto_present)
                assert b.accuracies == a.accuracies
                assert (b.accuracies is not None) == measured
                if measured:
                    assert all(type(acc) is float for acc in b.accuracies)
        assert any(r.metrics.relabel_changes for rs in got for r in rs)
        for a, b in zip(want_clients, got_clients):
            assert np.array_equal(b.params.vector, a.params.vector), a.id
            assert np.array_equal(b.working_labels, a.working_labels), a.id

    def test_one_cpu_leaves_the_clients_arrays_in_place(self, monkeypatch):
        use_cpus(monkeypatch, 1)
        cfg, ds, clients, _ = make_world(**PARALLEL)
        before = [(c.params.vector, c.working_labels) for c in clients]
        with federation.Workers(clients, ds, cfg) as workers:
            assert workers.conns == []
        for c, (vector, labels) in zip(clients, before):
            assert c.params.vector is vector
            assert c.working_labels is labels


# sha256 of metrics.csv for small_cfg(**PARALLEL, method=m), recorded with
# the single-process round loop (numpy 2.4, OpenBLAS, x86-64). A change of
# these bits must be declared, not re-recorded in passing.
GOLDEN_METRICS_SHA256 = {
    "baseline": "20c8122797c08969c0f171f54458eab82bb5a9762b5e2fc17b35af2ad5b20c95",
    "ue": "fab537e6ef6fe778c4393cb585e33fee342ccff57e1232f1b38b18479fbbea42",
    "ue_ec": "ce0fe4b178292ad3e1251b7f579bd08a49c0ab756e06cbba945ce63bd2703611",
}


@pytest.mark.parametrize("method", sorted(GOLDEN_METRICS_SHA256))
def test_golden_metrics_hash(tmp_path, method):
    run_experiment(small_cfg(**PARALLEL, method=method), out_dir=tmp_path)
    got = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_METRICS_SHA256[method]


# Sixteen clients, eight aggregated per round, with wider blocks: the
# per-client sum in aggregate reaches metrics.csv here, so a (K, P) matmul
# in its place changes the hash (the configs above aggregate at most three
# clients, and their hashes do not see it).
MANY_CLIENTS = dict(PARALLEL, client_count=16, samples_per_class=40,
                    rounds=6, backbone_dim=32, expr_dim=32, compact_dim=16,
                    relational_dim=16, estimator_hidden=16, method="ue_ec")
# sha256 of metrics.csv for small_cfg(**MANY_CLIENTS), the same in one
# process and with a forked worker (numpy 2.4, OpenBLAS, x86-64); a change
# of these bits must be declared like the hashes above
GOLDEN_MANY_CLIENTS_SHA256 = (
    "fd786f1c38d29a18f85513b6ade9471fc7d643c3c5b4eb0550c583315005336f")


@pytest.mark.parametrize("cpus", [1, 2])
def test_golden_metrics_hash_many_clients(monkeypatch, tmp_path, cpus):
    sizes = []
    orig = federation.aggregate

    def spy(server, updates, mode):
        sizes.append(len(updates))
        return orig(server, updates, mode)

    monkeypatch.setattr(federation, "aggregate", spy)
    use_cpus(monkeypatch, cpus)
    cfg = small_cfg(**MANY_CLIENTS)
    assert federation.worker_count(cfg) == cpus - 1
    run_experiment(cfg, out_dir=tmp_path)
    assert sizes == [8] * cfg.rounds
    got = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_MANY_CLIENTS_SHA256
