import dataclasses
import hashlib
import math
import os
import weakref

import numpy as np
import pytest
from conftest import fake_cpus

from hyperfed import data as data_mod
from hyperfed import ec_block, federation, ue_block
from hyperfed.config import METHODS, make_config
from hyperfed.federation import (ClientState, ClientUpdate, ServerState,
                                 aggregate, batch_prototypes, build_dataset,
                                 init_model, local_train_epoch, model_layout,
                                 prototype_loss, push_global, run_experiment,
                                 run_round, select_clients, set_up_run,
                                 shared_tensors)
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
    return (cfg, *set_up_run(cfg))


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
        loss, grad = prototype_loss(p, [True], p.copy(), [True])
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_hand_l1(self):
        loss, grad = prototype_loss(np.array([[1.0, 3.0]]), [True],
                                    np.array([[3.0, 5.0]]), [True])
        assert loss == pytest.approx(4.0)
        assert np.array_equal(grad, [[-1.0, -1.0]])

    def test_absent_class_skipped_with_renormalization(self):
        local = np.array([[1.0, 1.0], [0.0, 0.0]])
        glob = np.array([[2.0, 2.0], [9.0, 9.0]])
        loss, grad = prototype_loss(local, [True, False], glob,
                                    [True, True])
        assert loss == pytest.approx(2.0)  # only class 1, (1+1)/1
        assert np.all(grad[1] == 0.0)

    def test_no_overlap_warns_zero(self):
        loss, grad = prototype_loss(np.ones((2, 2)), [True, False],
                                    np.ones((2, 2)), [False, True])
        assert loss == 0.0 and np.all(grad == 0.0)


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
        out = _blank_server(n_shared=2)
        assert aggregate(out, _updates_from([shared], [5]), "data-size") \
            is None
        assert np.array_equal(out.shared, shared)

    def test_uniform_prototype_mean(self):
        protos = [np.array([[1.0, 3.0], [0.0, 0.0]]),
                  np.array([[3.0, 5.0], [0.0, 0.0]])]
        present = [np.array([True, False]), np.array([True, False])]
        out = _blank_server()
        aggregate(out, _updates_from([np.zeros(1)] * 2, [1, 1], protos,
                                     present), "uniform")
        assert np.array_equal(out.prototypes[0], [2.0, 4.0])
        assert not out.proto_present[1]

    def test_identical_updates_unchanged_uniform(self):
        shared = np.array([1.5, -2.5])
        ups = _updates_from([shared.copy() for _ in range(3)], [3, 3, 3])
        out = _blank_server(n_shared=2)
        aggregate(out, ups, "uniform")
        assert np.allclose(out.shared, shared, atol=1e-15)

    def test_permutation_invariance(self):
        rng = child_rng(20, "perm")
        shared = [rng.standard_normal(3) for _ in range(4)]
        ups = _updates_from(shared, [1, 2, 3, 4])
        # two servers: one would compare an object with itself
        a, b = _blank_server(n_shared=3), _blank_server(n_shared=3)
        aggregate(a, ups, "data-size")
        aggregate(b, list(reversed(ups)), "data-size")
        assert np.array_equal(a.shared, b.shared)

    def test_shape_mismatch_is_protocol_error(self):
        ups = _updates_from([np.zeros(2), np.zeros(3)], [1, 1])
        with pytest.raises(federation.ProtocolError):
            aggregate(_blank_server(n_shared=2), ups, "uniform")

    def test_private_tensor_rejected(self):
        # a whole model vector carries the private tail
        params = init_model(small_cfg(), [child_rng(20, "priv")])[0]
        server = _blank_server()
        server.shared = shared_tensors(params)
        ups = _updates_from([params.vector.copy()], [1])
        with pytest.raises(federation.ProtocolError):
            aggregate(server, ups, "uniform")

    @pytest.mark.parametrize("case", ["shape mismatch", "whole model",
                                      "unknown mode", "prototype shape"])
    def test_refused_call_leaves_the_server_as_it_was(self, case):
        rng = child_rng(20, "refused", case)
        server = ServerState(shared=rng.standard_normal(3),
                             prototypes=rng.standard_normal((2, 2)),
                             proto_present=np.array([True, False]), round=4)
        arrays = (server.shared, server.prototypes, server.proto_present)
        before = [a.tobytes() for a in arrays]
        shared = [rng.standard_normal(3) for _ in range(2)]
        protos = [rng.standard_normal((2, 2)) for _ in range(2)]
        mode, error = "uniform", federation.ProtocolError
        if case == "shape mismatch":
            shared[1] = shared[1][:2]
        elif case == "whole model":  # the head and a private tail
            shared[1] = rng.standard_normal(5)
        elif case == "unknown mode":
            mode, error = "median", ValueError
        else:  # a width of 1 would broadcast over the server's width of 2
            protos[1] = protos[1][:, :1]
        ups = _updates_from(shared, [1, 2], protos, [np.ones(2, bool)] * 2)
        with pytest.raises(error):
            aggregate(server, ups, mode)
        assert [a.tobytes() for a in arrays] == before
        assert server.round == 4

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
            server = _blank_server(n_shared=n)
            aggregate(server, updates, mode)
            got = head_views(layout, server.shared)
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
        [m] = local_train_epoch([client], ds, server, cfg,
                                [child_rng(0, "t")])
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
        local_train_epoch([client], ds, server, cfg, [rng])

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
            local_train_epoch([clients[1]], ds, server, cfg,
                              [child_rng(5, "det")])
            results.append(clients[1].params.views)
        for k in results[0]:
            assert np.array_equal(results[0][k], results[1][k]), k

    def test_epoch_touches_each_train_sample_once(self, monkeypatch):
        cfg, ds, clients, server = make_world(method="ue")
        client = clients[2]
        seen = []
        orig = federation._batch_step

        def spy(params, grads, ds_, batch_idx, *args, **kw):
            seen.extend(batch_idx.ravel().tolist())
            return orig(params, grads, ds_, batch_idx, *args, **kw)

        monkeypatch.setattr(federation, "_batch_step", spy)
        local_train_epoch([client], ds, server, cfg, [child_rng(0, "touch")])
        assert sorted(seen) == sorted(client.train_idx.tolist())


def relabel_batch_oracle(client, dataset, batch_idx, cfg):
    """Reference relabel pass on a single batch, unstacked: persists
    refined labels and returns the change log as dataset indices."""
    refine = ec_block.RefineConfig(cfg.delta)
    params = client.params
    x = dataset.features[batch_idx]
    labels = client.working_labels[batch_idx]
    deep, _ = mlp_forward(params, "backbone", x)
    beta, _ = ue_block.ue_forward(deep, params, cfg)
    if not np.any(beta >= refine.threshold):
        return []  # no sample may be refined, so propagation cannot matter
    logits, e, _ = ec_block.ec_forward(deep, params)
    y = ec_block.one_hot(labels, dataset.n_classes)
    scores = ec_block.label_propagate(e, y, cfg)
    l_prop = ec_block.scores_to_labels(scores)
    l_pred = ec_block.scores_to_labels(logits)
    refined, changes = ec_block.refine_labels(beta, l_prop, l_pred,
                                              labels, refine)
    if cfg.persist_refined:
        client.working_labels[batch_idx] = refined
    return [(int(batch_idx[i]), old, new) for i, old, new in changes]


def batch_step_oracle(client, dataset, batch_idx, server, cfg, grads):
    """Reference training step of one client on one batch, unstacked:
    the per-client loop that lockstep training replaced."""
    use_ue, use_w, _ = METHODS[cfg.method]
    params = client.params
    x = dataset.features[batch_idx]
    labels = client.working_labels[batch_idx]
    n = x.shape[0]
    grads.vector[:] = 0.0

    deep, backbone_cache = mlp_forward(params, "backbone", x)

    if use_ue:
        beta, ue_cache = ue_block.ue_forward(deep, params, cfg)
    else:
        beta = np.zeros(n)

    logits, e, ec_cache = ec_block.ec_forward(deep, params)
    loss_wce, grad_logits, grad_beta_wce = ue_block.weighted_ce_loss(
        logits, labels, beta)

    loss_w, grad_beta_w = 0.0, np.zeros(n)
    if use_w:
        loss_w, grad_beta_w = ue_block.weight_reg_loss(beta, cfg)

    protos, present, counts = federation.batch_prototypes(
        e, labels, dataset.n_classes)
    loss_p, grad_protos = prototype_loss(
        protos, present, server.prototypes, server.proto_present)
    grad_e = federation.prototype_row_grads(grad_protos, counts, labels,
                                            cfg.lambda2)

    grad_deep = ec_block.ec_backward(params, ec_cache, grad_logits, grads,
                                     grad_e)
    if use_ue:
        grad_beta = grad_beta_wce + cfg.lambda1 * grad_beta_w
        grad_deep += ue_block.ue_backward(params, ue_cache, grad_beta, grads)
    mlp_backward(params, "backbone", backbone_cache, grad_deep, grads)

    total = loss_wce + cfg.lambda1 * loss_w + cfg.lambda2 * loss_p
    if not math.isfinite(total):
        raise federation.ProtocolError(
            f"client {client.id}: non-finite loss "
            f"(wce={loss_wce}, w={loss_w}, p={loss_p})")

    grads.vector *= cfg.learning_rate
    params.vector -= grads.vector
    return loss_wce, loss_w, loss_p, beta


def epoch_oracle(client, dataset, server, cfg, rng):
    """Reference local epoch of one client, one batch at a time."""
    use_ue, _, use_relabel = METHODS[cfg.method]
    idx = client.train_idx[rng.permutation(client.train_idx.size)]
    batches = [idx[i:i + cfg.batch_size]
               for i in range(0, idx.size, cfg.batch_size)]

    m = federation.EpochMetrics()
    betas = []
    grads = Params(client.params.layout)
    for batch_idx in batches:
        l_wce, l_w, l_p, beta = batch_step_oracle(client, dataset,
                                                  batch_idx, server, cfg,
                                                  grads)
        m.loss_wce += l_wce * batch_idx.size
        m.loss_w += l_w * batch_idx.size
        m.loss_p += l_p * batch_idx.size
        betas.append(beta)
    n = idx.size
    m.loss_wce /= n
    m.loss_w /= n
    m.loss_p /= n

    if use_ue:
        beta_all = np.concatenate(betas)
        if beta_all.size >= 2:
            certain, uncertain = ue_block.split_certain_uncertain(beta_all,
                                                                  cfg)
            if certain.size:
                m.beta_certain_mean = float(np.mean(beta_all[certain]))
            if uncertain.size:
                m.beta_uncertain_mean = float(np.mean(beta_all[uncertain]))

    if use_relabel and server.round >= cfg.relabel_start_round:
        m.relabel_changes = federation._relabel_pass(client, dataset, idx,
                                                     cfg)
    return m


def per_client_epochs(clients, dataset, server, cfg, rngs):
    """local_train_epoch's contract, one client after another."""
    return [epoch_oracle(c, dataset, server, cfg, rng)
            for c, rng in zip(clients, rngs)]


def _copy_clients(clients):
    """Copies of a run's clients, with one copy of its working labels."""
    labels = clients[0].working_labels.copy()
    return [ClientState(c.id, c.train_idx, c.test_idx,
                        Params(c.params.layout, c.params.vector.copy()),
                        labels) for c in clients]


class _ReadLog(np.ndarray):
    """An array that logs the index of every read, in reads."""

    def __getitem__(self, key):
        self.reads.append(np.asarray(key))
        return np.asarray(self)[key]


class TestLockstepTraining:
    @pytest.mark.parametrize("kw", [
        dict(method="baseline"), dict(method="ue_no_w"), dict(method="ue"),
        dict(method="ue", zeta_mode="threshold", zeta=0.5),
        dict(method="ue_ec", noise_rate=0.3, delta=0.2)],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_epoch_matches_per_client_loop(self, monkeypatch, kw):
        cfg, ds, clients, server = make_world(**kw)
        rows = np.concatenate([c.train_idx for c in clients])
        # full batches of 8: 3, 2, 2 and none (5 rows), longest-first
        for c, (a, b) in zip(clients, [(0, 24), (24, 40), (40, 56),
                                       (56, 61)]):
            c.train_idx = rows[a:b]
        server = dataclasses.replace(server, round=cfg.relabel_start_round)
        want = _copy_clients(clients)
        rngs = [child_rng(3, "lockstep", c.id) for c in clients]
        want_m = per_client_epochs(want, ds, server, cfg,
                                   [child_rng(3, "lockstep", c.id)
                                    for c in clients])
        shapes = []
        orig = federation._batch_step

        def spy(params, grads, ds_, batch_idx, *args, **kw_):
            shapes.append(batch_idx.shape)
            return orig(params, grads, ds_, batch_idx, *args, **kw_)

        monkeypatch.setattr(federation, "_batch_step", spy)
        got_m = local_train_epoch(clients, ds, server, cfg, rngs)
        # three clients in step, then the longest alone, then the short one
        assert shapes == [(3, 8), (3, 8), (1, 8), (1, 5)]
        for a, b, ma, mb in zip(want, clients, want_m, got_m, strict=True):
            assert _same_metrics(mb, ma), a.id
            assert np.array_equal(b.params.vector, a.params.vector), a.id
        assert np.array_equal(clients[0].working_labels,
                              want[0].working_labels)

    def test_relabel_pass_forwards_the_trained_batches(self, monkeypatch):
        """The relabel pass forwards the batches the epoch trained, in the
        same order, for a client with full batches and a tail and for one
        with a tail alone."""
        cfg, ds, clients, server = make_world(method="ue_ec", noise_rate=0.3,
                                              delta=0.2)
        rows = np.concatenate([c.train_idx for c in clients])
        share = clients[:2]
        # batches of 8: two full ones and a tail of 3, then a tail of 5
        share[0].train_idx, share[1].train_idx = rows[:19], rows[19:24]
        trained = {c.id: [] for c in share}
        forwarded = {}
        step, relabel = federation._batch_step, federation._relabel_pass

        def step_spy(params, grads, ds_, batch_rows, labels, ids, *args):
            for k, batch in zip(ids, batch_rows):
                trained[k].append(batch.tolist())
            return step(params, grads, ds_, batch_rows, labels, ids, *args)

        def relabel_spy(client, ds_, idx, cfg_):
            features = ds_.features.view(_ReadLog)
            features.reads = []
            log = relabel(client, dataclasses.replace(ds_, features=features),
                          idx, cfg_)
            forwarded[client.id] = [batch.tolist() for stack in features.reads
                                    for batch in stack]
            return log

        monkeypatch.setattr(federation, "_batch_step", step_spy)
        monkeypatch.setattr(federation, "_relabel_pass", relabel_spy)
        local_train_epoch(share, ds, server, cfg,
                          [child_rng(3, "split", c.id) for c in share])
        assert [len(trained[c.id]) for c in share] == [3, 1]
        assert [len(b) for b in trained[share[0].id]] == [8, 8, 3]
        assert forwarded == trained

    def test_epoch_refuses_a_share_that_is_not_longest_first(self):
        cfg, ds, clients, server = make_world()
        rows = np.concatenate([c.train_idx for c in clients])
        # full batches of 8: 1 before 2
        share = clients[:2]
        share[0].train_idx, share[1].train_idx = rows[:8], rows[8:24]
        before = [c.params.vector.copy() for c in share]
        rngs = [child_rng(3, "order", c.id) for c in share]
        with pytest.raises(ValueError, match="not longest-first"):
            local_train_epoch(share, ds, server, cfg, rngs)
        for c, vector in zip(share, before):
            assert np.array_equal(c.params.vector, vector)
        share.reverse()
        assert len(local_train_epoch(share, ds, server, cfg, rngs[::-1])) == 2

    @pytest.mark.parametrize("kw", [
        dict(method="baseline"),
        dict(method="baseline", broadcast_all=True),
        dict(method="ue_ec"),
        dict(method="ue_ec", broadcast_all=True),
        dict(method="ue_ec", local_epochs=2),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_run_matches_per_client_loop(self, monkeypatch, tmp_path, kw):
        """The same bits as a per-client loop in one process, with 0, 1 and
        2 round workers."""
        cfg = small_cfg(**{**PARALLEL, **kw})
        with monkeypatch.context() as m:
            m.setattr(federation, "local_train_epoch", per_client_epochs)
            fake_cpus(m, 1)
            rows, want, _ = run_experiment(cfg, out_dir=tmp_path / "want")
        if cfg.method == "ue_ec":
            assert sum(r[9] or 0 for r in rows if r[2] == "test") > 0
        csv = (tmp_path / "want" / "metrics.csv").read_bytes()
        for n in (1, 2, 3):
            fake_cpus(monkeypatch, n)
            assert federation.worker_count(cfg) == n - 1
            _, got, _ = run_experiment(cfg, out_dir=tmp_path / str(n))
            assert (tmp_path / str(n) / "metrics.csv").read_bytes() == csv
            for a, b in zip(want, got, strict=True):
                assert np.array_equal(b.params.vector, a.params.vector), \
                    (n, a.id)
                assert np.array_equal(b.working_labels, a.working_labels), \
                    (n, a.id)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_stack_goes_with_the_run(self, monkeypatch, cpus):
        fake_cpus(monkeypatch, cpus)
        _, clients, _ = run_experiment(small_cfg(**PARALLEL))
        assert all(c.stack is clients[0].stack for c in clients)
        assert all(c.working_labels is clients[0].working_labels
                   for c in clients)
        stack = weakref.ref(clients[0].stack)
        assert 0 < stack().rows <= 3
        del clients
        assert stack() is None  # and with it its maps

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_loss_names_its_client(self, monkeypatch, position):
        # batches of 4: the first batches of the round's three clients run
        # as one stack
        cfg, ds, clients, server = make_world(**PARALLEL, method="ue_ec",
                                              batch_size=4)
        share = select_clients(cfg.seed, 0, len(clients), cfg.participation)
        assert len(share) == 3
        assert all(clients[k].train_idx.size >= 4 for k in share)
        bad = clients[share[position]]
        # a NaN in the first row of the client's first batch
        first = child_rng(cfg.seed, "train", 0, bad.id, 0).permutation(
            bad.train_idx.size)[0]
        ds.features[bad.train_idx[first]] = np.nan
        shapes = []
        orig = federation._batch_step

        def spy(params, grads, ds_, batch_idx, *args, **kw):
            shapes.append(batch_idx.shape)
            return orig(params, grads, ds_, batch_idx, *args, **kw)

        monkeypatch.setattr(federation, "_batch_step", spy)
        with pytest.raises(federation.ProtocolError) as info:
            run_round(server, clients, ds, cfg)
        assert shapes == [(3, 4)]
        assert str(info.value).startswith(f"client {bad.id}: non-finite loss")
        for k in share:
            if k != bad.id:
                assert f"client {k}:" not in str(info.value)


class TestRelabelGate:
    def _batch(self, **kw):
        cfg, ds, clients, server = make_world(method="ue_ec", noise_rate=0.3,
                                              **kw)
        client = clients[0]
        batch_idx = client.train_idx[:cfg.batch_size]
        deep, _ = mlp_forward(client.params, "backbone",
                              ds.features[batch_idx])
        beta = ue_block.ue_forward(deep, client.params, cfg)[0]
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
        peaks = ue_block.ue_forward(deep, client.params, cfg)[0].max(axis=-1)
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
                         params=init_model(cfg, [rng])[0],
                         working_labels=rng.integers(1, n_classes + 1, n))
    # a threshold between two batch peaks leaves stacks with candidates
    # in some batches only; other seeds go above or below every peak
    betas = []
    for i in range(0, idx.size, cfg.batch_size):
        deep, _ = mlp_forward(client.params, "backbone",
                              x[idx[i:i + cfg.batch_size]])
        betas.append(ue_block.ue_forward(deep, client.params,
                                         cfg)[0].max())
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


def init_model_oracle(layout, rng):
    """init_model as it was while every method's model held the UE
    blocks: each block of the layout drawn in DRAW_ORDER into its own
    views."""
    params = Params(layout, np.zeros(layout.size))
    for prefix in federation.DRAW_ORDER:
        for _, w, _, slope in params.blocks[prefix]:
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            if slope is not None:
                slope[...] = 0.25
    return params


class TestMethodLayout:
    def test_ue_blocks_exactly_for_methods_with_the_ue_block(self):
        for cfg in (small_cfg(), make_config({})):
            for method, (ue, _, _) in METHODS.items():
                layout = model_layout(dataclasses.replace(cfg, method=method))
                names = {name.split(".")[0] for name in layout.slots}
                assert names == ({"backbone", "ec", "ue"} if ue
                                 else {"backbone", "ec"}), method
                # the estimator is the private tail, and only it
                private = layout.size - layout.n_shared
                assert private == (layout.size - layout.slots[
                    "ue.estimator.w0"][0] if ue else 0), method
        # the default model size
        assert model_layout(make_config({"method": "baseline"})).size == 6727
        assert model_layout(make_config({"method": "ue"})).size == 23241

    def test_baseline_keeps_the_full_models_backbone_and_ec(self):
        for seed in (0, 3, 1009):
            cfg = small_cfg(seed=seed)
            base = dataclasses.replace(cfg, method="baseline")
            full = model_layout(dataclasses.replace(cfg, method="ue"))
            for k in (0, 1, 7):
                want = init_model_oracle(full, child_rng(seed, "init", k))
                got, = init_model(base, [child_rng(seed, "init", k)])
                # backbone and EC come first in both layouts
                assert got.vector.tobytes() == \
                    want.vector[:got.layout.size].tobytes(), (seed, k)
                assert set(got.layout.slots) < set(want.layout.slots)

    def test_ue_methods_initialize_as_before(self):
        for seed in (0, 3, 1009):
            for method in ("ue_no_w", "ue", "ue_ec"):
                cfg = small_cfg(seed=seed, method=method)
                for k in (0, 1, 7):
                    want = init_model_oracle(model_layout(cfg),
                                             child_rng(seed, "init", k))
                    got, = init_model(cfg, [child_rng(seed, "init", k)])
                    assert got.vector.tobytes() == want.vector.tobytes(), \
                        (seed, method, k)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_step_overwrites_every_gradient(self, method):
        # so a step needs no zeroed gradient buffer: NaN left in it by
        # anything gives the same step as zeros
        cfg, ds, clients, server = make_world(**PARALLEL, method=method)
        client = max(clients, key=lambda c: c.train_idx.size)
        layout = client.params.layout
        rows = client.train_idx[None, :cfg.batch_size]
        after = []
        for stale in (0.0, np.nan):
            params = Params(layout, client.params.vector[None].copy())
            grads = Params(layout, np.full((1, layout.size), stale))
            federation._batch_step(params, grads, ds, rows,
                                   client.working_labels[rows], [client.id],
                                   server, cfg)
            after.append(params.vector.tobytes() + grads.vector.tobytes())
        assert after[0] == after[1]

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_epoch_trains_the_whole_vector(self, method):
        cfg, ds, clients, server = make_world(**PARALLEL, method=method)
        share = clients[:3]
        before = [c.params.vector.copy() for c in share]
        rngs = [child_rng(cfg.seed, "train", 0, c.id, 0) for c in share]
        local_train_epoch(share, ds, server, cfg, rngs)
        for c, vector in zip(share, before):
            old = Params(c.params.layout, vector)
            for name, view in c.params.views.items():
                assert not np.array_equal(view, old[name]), (c.id, name)


class TestEvaluationMemo:
    @pytest.mark.parametrize("broadcast_all", [False, True])
    def test_rows_match_full_reevaluation(self, monkeypatch, broadcast_all):
        fake_cpus(monkeypatch, 1)  # every evaluation in this process
        cfg = small_cfg(rounds=3, method="ue_ec", noise_rate=0.2,
                        participation=0.5, broadcast_all=broadcast_all)
        want = []   # per round: [(test, pooled) for every client]
        calls = []  # the dataset of each evaluation
        selected = []
        datasets = set()
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
            selected.append(len(out))
            datasets.add(id(dataset))
            return out

        def eval_spy(params, dataset, idx):
            calls.append(id(dataset))
            return orig_eval(params, dataset, idx)

        monkeypatch.setattr(federation, "run_round", round_spy)
        monkeypatch.setattr(federation, "evaluate", eval_spy)
        rows, _, _ = run_experiment(cfg)
        got = {(r[0], r[1], r[2]): r[3] for r in rows if r[1] >= 0}
        assert len(want) == cfg.rounds + 1
        for t, accs in enumerate(want):
            for k, (test, pooled) in enumerate(accs):
                assert got[t, k, "test"] == test, (t, k)
                assert got[t, k, "pooled"] == pooled, (t, k)
        # one pooled evaluation per model: a push to every client (round
        # 0, and each round with broadcast_all) makes one model
        pooled = sum(id_ not in datasets for id_ in calls)
        n = cfg.client_count
        if broadcast_all:
            assert len(calls) - pooled == n * (cfg.rounds + 1)
            assert pooled == cfg.rounds + 1
        else:
            assert len(calls) - pooled == n + sum(selected)
            assert pooled == 1 + sum(selected)


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
        records = run_round(server, clients, ds, cfg)
        assert [r.client_id for r in records] == [0]
        assert server.round == 1
        got = shared_tensors(clients[0].params)
        assert np.array_equal(server.shared, got)

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
            run_round(server, clients, ds, cfg)
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


class TestParallelRounds:
    """What round workers add to processes.Forked and process_slots (both
    tested in tests/test_processes.py): how many workers a run forks, how
    a round's clients are split, and that a worker's error reaches the
    caller."""

    def test_no_more_workers_than_a_round_keeps_busy(self, monkeypatch):
        cfg = small_cfg(**PARALLEL)  # three clients a round
        for slots, want in [(1, 0), (2, 1), (3, 2), (4, 2), (8, 2)]:
            monkeypatch.setattr(federation, "process_slots", lambda: slots)
            assert federation.worker_count(cfg) == want, slots

    def test_a_run_of_no_rounds_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked a worker")

        monkeypatch.setattr(federation, "process_slots", lambda: 2)
        cfg = small_cfg(**{**PARALLEL, "rounds": 0})
        assert federation.worker_count(dataclasses.replace(cfg, rounds=1)) \
            == 1
        assert federation.worker_count(cfg) == 0
        monkeypatch.setattr(os, "fork", no_fork)
        run_experiment(cfg)

    def test_split_longest_first(self):
        sizes = [5, 9, 2, 9, 7]
        clients = [ClientState(id=k, train_idx=np.arange(n), test_idx=None,
                               params=None, working_labels=None)
                   for k, n in enumerate(sizes)]
        shares = federation.split_longest_first([0, 1, 2, 3, 4], clients, 2)
        assert shares == [[1, 4], [3, 0, 2]]
        assert federation.split_longest_first([2], clients, 3) == [[2], [],
                                                                    []]

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        parent = os.getpid()
        orig = federation.local_train_epoch

        def epoch(*args, **kw):
            if os.getpid() != parent:
                raise LinearSolveError("injected in a worker")
            return orig(*args, **kw)

        monkeypatch.setattr(federation, "local_train_epoch", epoch)
        fake_cpus(monkeypatch, 2)
        with pytest.raises(LinearSolveError, match="^injected in a worker$"):
            run_experiment(small_cfg(**PARALLEL, method="ue"))


def _round_records(monkeypatch, cpus, measure, **kw):
    """Each round's records from run_round on cpus faked CPUs, for a run
    in which every round trains clients in this process and, with two
    CPUs, in a worker too, measuring accuracies when measure is true;
    each round's accuracy table (None without measuring); and the clients
    after the last round."""
    fake_cpus(monkeypatch, cpus)
    cfg, ds, clients, server = make_world(**{**PARALLEL, **kw})
    accs = federation.Accuracies(clients, ds) if measure else None
    rounds, tables = [], []
    with federation.Workers(server, clients, ds, cfg, accs) as workers:
        assert len(workers.conns) == cpus - 1
        for _ in range(cfg.rounds):
            selected = select_clients(cfg.seed, server.round, len(clients),
                                      cfg.participation)
            shares = federation.split_longest_first(selected, clients, cpus)
            assert all(shares)
            records = run_round(server, clients, ds, cfg, workers, accs)
            assert [r.client_id for r in records] == selected
            rounds.append(records)
            tables.append(accs.by_client.copy() if measure else None)
    return rounds, tables, clients


def _same_metrics(a, b):
    pairs = zip(dataclasses.astuple(a), dataclasses.astuple(b))
    return all(x == y or (x != x and y != y) for x, y in pairs)  # nan


class TestClientRound:
    @pytest.mark.parametrize("memo,broadcast_all", [
        (True, False), (False, False), (True, True), (False, True)])
    def test_one_record_per_selected_client_from_both_processes(
            self, monkeypatch, memo, broadcast_all):
        kw = dict(method="ue_ec", broadcast_all=broadcast_all)
        want, want_tables, want_clients = _round_records(monkeypatch, 1,
                                                         memo, **kw)
        got, got_tables, got_clients = _round_records(monkeypatch, 2, memo,
                                                      **kw)
        trained = set()
        for want_records, got_records, want_table, got_table in zip(
                want, got, want_tables, got_tables, strict=True):
            for a, b in zip(want_records, got_records, strict=True):
                assert type(b) is federation.ClientRound
                assert b.client_id == a.client_id
                assert _same_metrics(b.metrics, a.metrics), b.client_id
                assert np.array_equal(b.prototypes, a.prototypes)
                assert np.array_equal(b.proto_present, a.proto_present)
            trained |= {r.client_id for r in got_records}
            if memo:  # the same bits, NaN where unmeasured
                assert got_table.tobytes() == want_table.tobytes()
                # every pooled test split has rows, so its NaN is unmeasured
                measured = set(np.flatnonzero(~np.isnan(got_table[:, 1])))
                assert measured == (set(range(len(got_clients)))
                                    if broadcast_all else trained)
        assert any(r.metrics.relabel_changes for rs in got for r in rs)
        for a, b in zip(want_clients, got_clients):
            assert np.array_equal(b.params.vector, a.params.vector), a.id
            assert np.array_equal(b.working_labels, a.working_labels), a.id

    def test_one_cpu_leaves_the_clients_arrays_in_place(self, monkeypatch):
        fake_cpus(monkeypatch, 1)
        cfg, ds, clients, server = make_world(**PARALLEL)
        labels = clients[0].working_labels
        assert all(c.working_labels is labels for c in clients)
        vectors = [c.params.vector for c in clients]
        head = server.shared
        with federation.Workers(server, clients, ds, cfg) as workers:
            assert workers.conns == []
        for c, vector in zip(clients, vectors):
            assert c.params.vector is vector
            assert c.working_labels is labels
        assert server.shared is head

    def test_a_fork_moves_the_model_vectors_server_and_accuracies(
            self, monkeypatch):
        """...and the run's working labels, which every client still
        shares after the move."""
        fake_cpus(monkeypatch, 2)
        cfg, ds, clients, server = make_world(**PARALLEL)
        accs = federation.Accuracies(clients, ds)
        vectors = [c.params.vector for c in clients]
        names = ("shared", "prototypes", "proto_present")
        arrays = [getattr(server, name) for name in names] + [
            accs.by_client, clients[0].working_labels]
        with federation.Workers(server, clients, ds, cfg, accs) as workers:
            assert len(workers.conns) == 1
        labels = clients[0].working_labels
        for c, vector in zip(clients, vectors):
            assert c.params.vector is not vector
            assert np.array_equal(c.params.vector, vector)
            assert c.working_labels is labels
        moved = [getattr(server, name) for name in names] + [accs.by_client,
                                                             labels]
        for old, new in zip(arrays, moved):
            assert new is not old
            assert new.tobytes() == old.tobytes()
            assert (new.dtype, new.shape) == (old.dtype, old.shape)

    def test_a_worker_is_sent_only_the_round_and_the_ids(self, monkeypatch):
        fake_cpus(monkeypatch, 2)
        cfg, ds, clients, server = make_world(**PARALLEL)
        sent, want = [], []
        with federation.Workers(server, clients, ds, cfg) as workers:
            send = workers.conns[0].send
            monkeypatch.setattr(workers.conns[0], "send",
                                lambda job: (sent.append(job), send(job))[1])
            for t in range(cfg.rounds):
                selected = select_clients(cfg.seed, t, len(clients),
                                          cfg.participation)
                share = federation.split_longest_first(selected, clients,
                                                       2)[1]
                want.append((t, share))
                run_round(server, clients, ds, cfg, workers)
        assert sent == want
        assert all(type(k) is int for _, share in sent for k in share)


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
# the same for method baseline: it trains only the head of each stack row,
# and some of its clients have only a short batch
GOLDEN_MANY_CLIENTS_BASELINE_SHA256 = (
    "fcbb0c49370a58cd70d02c9df4d6ada607cae33c93d808aedd07d3a93cf153a5")


def _many_clients_run(monkeypatch, tmp_path, cpus, **kw):
    """sha256 of metrics.csv for small_cfg(**MANY_CLIENTS, **kw) on cpus
    faked CPUs, after checking that every round aggregates eight clients;
    and the run's clients and config."""
    sizes = []
    orig = federation.aggregate

    def spy(server, updates, mode):
        sizes.append(len(updates))
        return orig(server, updates, mode)

    monkeypatch.setattr(federation, "aggregate", spy)
    fake_cpus(monkeypatch, cpus)
    cfg = small_cfg(**{**MANY_CLIENTS, **kw})
    assert federation.worker_count(cfg) == cpus - 1
    _, clients, _ = run_experiment(cfg, out_dir=tmp_path)
    assert sizes == [8] * cfg.rounds
    got = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    return got, clients, cfg


@pytest.mark.parametrize("cpus", [1, 2])
def test_golden_metrics_hash_many_clients(monkeypatch, tmp_path, cpus):
    got, _, _ = _many_clients_run(monkeypatch, tmp_path, cpus)
    assert got == GOLDEN_MANY_CLIENTS_SHA256


@pytest.mark.parametrize("cpus", [1, 2])
def test_golden_metrics_hash_many_clients_baseline(monkeypatch, tmp_path,
                                                    cpus):
    got, clients, cfg = _many_clients_run(monkeypatch, tmp_path, cpus,
                                          method="baseline")
    assert any(0 < c.train_idx.size < cfg.batch_size for c in clients)
    assert got == GOLDEN_MANY_CLIENTS_BASELINE_SHA256
