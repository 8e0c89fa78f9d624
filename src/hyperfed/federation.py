"""Federated protocol: client local training, prototype regularization,
server aggregation of shared parameters and prototypes, and the round loop.

Only the uncertainty estimator is private; every other tensor is shared
and aggregated. All randomness is drawn from streams keyed by
(seed, purpose, round, client), so scheduling cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import ec_block, ue_block
from .config import ExperimentConfig
from .ec_block import EcParams, PropagationConfig, RefineConfig
from .hypergraph import KernelConfig
from .numcore import MlpParams, child_rng, init_mlp, mlp_axpy, mlp_backward, \
    mlp_forward
from .ue_block import UeParams, WeightRegConfig

PRIVATE_PREFIX = "ue.estimator."


class ProtocolError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Model parameters and their named-tensor view
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    backbone: MlpParams
    ue: UeParams
    ec: EcParams

    def copy(self):
        return ModelParams(self.backbone.copy(), self.ue.copy(),
                           self.ec.copy())


def init_model(cfg, rng):
    backbone = init_mlp([cfg.feature_dim, cfg.backbone_dim], ["relu"], rng)
    ue = ue_block.init_ue_params(cfg.backbone_dim, cfg.compact_dim,
                                 cfg.relational_dim, cfg.estimator_hidden,
                                 rng, n_hgnn_layers=cfg.hgnn_layers)
    ec = ec_block.init_ec_params(cfg.backbone_dim, cfg.expr_dim,
                                 cfg.classes, rng)
    return ModelParams(backbone, ue, ec)


def _mlp_tensors(prefix, mlp):
    out = {}
    for i, (w, b, act) in enumerate(zip(mlp.weights, mlp.biases,
                                        mlp.activations)):
        out[f"{prefix}w{i}"] = w
        out[f"{prefix}b{i}"] = b
        if act == "prelu":
            out[f"{prefix}s{i}"] = np.array([mlp.slopes[i]])
    return out


def named_tensors(params):
    """Flat name -> array view of every trainable tensor."""
    out = {}
    out.update(_mlp_tensors("backbone.", params.backbone))
    out.update(_mlp_tensors("ue.compact.", params.ue.compact_mlp))
    for i, layer in enumerate(params.ue.hgnn_layers):
        out[f"ue.hgnn.t{i}"] = layer.theta
    out.update(_mlp_tensors("ue.estimator.", params.ue.estimator))
    out.update(_mlp_tensors("ec.expr.", params.ec.expr_mlp))
    out.update(_mlp_tensors("ec.classifier.", params.ec.classifier))
    return out


def shared_tensors(params):
    return {k: v.copy() for k, v in named_tensors(params).items()
            if not k.startswith(PRIVATE_PREFIX)}


def private_tensors(params):
    return {k: v.copy() for k, v in named_tensors(params).items()
            if k.startswith(PRIVATE_PREFIX)}


def _set_mlp_tensor(mlp, name, value):
    kind, idx = name[0], int(name[1:])
    if kind == "w":
        mlp.weights[idx] = value.copy()
    elif kind == "b":
        mlp.biases[idx] = value.copy()
    elif kind == "s":
        mlp.slopes[idx] = float(value[0])
    else:
        raise KeyError(name)


def set_tensors(params, tensors):
    """Write named tensors into a ModelParams (in place)."""
    for name, value in tensors.items():
        head, rest = name.split(".", 1)
        if head == "backbone":
            _set_mlp_tensor(params.backbone, rest, value)
        elif head == "ue":
            sub, leaf = rest.split(".", 1)
            if sub == "compact":
                _set_mlp_tensor(params.ue.compact_mlp, leaf, value)
            elif sub == "estimator":
                _set_mlp_tensor(params.ue.estimator, leaf, value)
            elif sub == "hgnn":
                params.ue.hgnn_layers[int(leaf[1:])].theta = value.copy()
            else:
                raise KeyError(name)
        elif head == "ec":
            sub, leaf = rest.split(".", 1)
            if sub == "expr":
                _set_mlp_tensor(params.ec.expr_mlp, leaf, value)
            elif sub == "classifier":
                _set_mlp_tensor(params.ec.classifier, leaf, value)
            else:
                raise KeyError(name)
        else:
            raise KeyError(name)


# ---------------------------------------------------------------------------
# Client / server state
# ---------------------------------------------------------------------------

@dataclass
class ClientState:
    id: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    params: ModelParams
    working_labels: np.ndarray    # dataset-length; refined labels persist here
    prototypes: np.ndarray = None  # C x d_e
    proto_present: np.ndarray = None


@dataclass
class ServerState:
    shared: dict
    prototypes: np.ndarray
    proto_present: np.ndarray
    round: int = 0


@dataclass
class ClientUpdate:
    client_id: int
    shared: dict
    prototypes: np.ndarray
    proto_present: np.ndarray
    n_samples: int


def push_global(server, client):
    """Overwrite the client's shared tensors with the global model.
    Private (estimator) tensors are never touched."""
    set_tensors(client.params, server.shared)


# ---------------------------------------------------------------------------
# Prototypes
# ---------------------------------------------------------------------------

def batch_prototypes(e, labels, n_classes):
    """Per-class mean of the rows of e; returns (protos, present, counts)."""
    protos = np.zeros((n_classes, e.shape[1]))
    counts = np.zeros(n_classes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    for j in range(1, n_classes + 1):
        rows = labels == j
        counts[j - 1] = rows.sum()
        if counts[j - 1]:
            protos[j - 1] = e[rows].mean(axis=0)
    return protos, counts > 0, counts


def prototype_loss(local_protos, local_present, global_protos, global_present):
    """Mean L1 distance over classes present on both sides; subgradient
    w.r.t. the local prototypes. Returns (loss, grad_local, ok)."""
    overlap = np.asarray(local_present) & np.asarray(global_present)
    grad = np.zeros_like(local_protos)
    m = int(overlap.sum())
    if m == 0:
        return 0.0, grad, False
    diff = local_protos - global_protos
    loss = float(np.sum(np.abs(diff[overlap]))) / m
    grad[overlap] = np.sign(diff[overlap]) / m
    return loss, grad, True


def compute_prototypes(client, dataset):
    """Full-pass class means of the expression features over the client's
    training partition (current working labels, no gradient)."""
    idx = client.train_idx
    x = dataset.features[idx]
    deep, _ = mlp_forward(client.params.backbone, x)
    e, _ = mlp_forward(client.params.ec.expr_mlp, deep)
    protos, present, _ = batch_prototypes(e, client.working_labels[idx],
                                          dataset.n_classes)
    client.prototypes = protos
    client.proto_present = present
    return protos, present


# ---------------------------------------------------------------------------
# Local training
# ---------------------------------------------------------------------------

def _method_flags(method):
    use_ue = method in ("ue_no_w", "ue", "ue_ec")
    use_w = method in ("ue", "ue_ec")
    use_ec_relabel = method == "ue_ec"
    return use_ue, use_w, use_ec_relabel


def _sub_configs(cfg):
    kernel = KernelConfig(neighbor_count=cfg.neighbor_count,
                          bandwidth_mode=cfg.bandwidth_mode,
                          fixed_sigma=cfg.fixed_sigma)
    reg = WeightRegConfig(margin=cfg.eta, certain_fraction=cfg.zeta,
                          mode=cfg.zeta_mode)
    prop = PropagationConfig(trade_off=cfg.prop_lambda,
                             neighbor_count=cfg.ec_neighbor_count,
                             bandwidth_mode=cfg.bandwidth_mode,
                             fixed_sigma=cfg.fixed_sigma)
    refine = RefineConfig(threshold=cfg.delta)
    return kernel, reg, prop, refine


def _batch_step(client, dataset, batch_idx, server, cfg, kernel, reg):
    """Forward, total loss, backward and SGD update for one batch.
    Returns the loss pieces and the batch beta vector."""
    use_ue, use_w, _ = _method_flags(cfg.method)
    params = client.params
    x = dataset.features[batch_idx]
    labels = client.working_labels[batch_idx]
    n = x.shape[0]

    deep, backbone_cache = mlp_forward(params.backbone, x)

    if use_ue:
        ue_out, ue_cache = ue_block.ue_forward(deep, params.ue, kernel)
        beta = ue_out.beta
    else:
        beta = np.zeros(n)

    logits, e, ec_cache = ec_block.ec_forward(deep, params.ec)
    loss_wce, grad_logits, grad_beta_wce = ue_block.weighted_ce_loss(
        logits, labels, beta)

    loss_w, grad_beta_w = 0.0, np.zeros(n)
    if use_ue and use_w:
        loss_w, grad_beta_w, _ = ue_block.weight_reg_loss(beta, reg)

    protos, present, counts = batch_prototypes(e, labels, dataset.n_classes)
    loss_p, grad_protos, _ = prototype_loss(
        protos, present, server.prototypes, server.proto_present)
    grad_e = np.zeros_like(e)
    for j in np.flatnonzero(np.any(grad_protos != 0.0, axis=1)):
        rows = labels == j + 1
        grad_e[rows] = cfg.lambda2 * grad_protos[j] / counts[j]

    ec_grads, grad_deep = ec_block.ec_backward(params.ec, ec_cache,
                                               grad_logits, grad_e)
    if use_ue:
        grad_beta = grad_beta_wce + cfg.lambda1 * grad_beta_w
        ue_grads, grad_deep_ue = ue_block.ue_backward(params.ue, ue_cache,
                                                      grad_beta)
        grad_deep = grad_deep + grad_deep_ue
    backbone_grads, _ = mlp_backward(params.backbone, backbone_cache,
                                     grad_deep)

    total = loss_wce + cfg.lambda1 * loss_w + cfg.lambda2 * loss_p
    if not np.isfinite(total):
        raise ProtocolError(
            f"client {client.id}: non-finite loss "
            f"(wce={loss_wce}, w={loss_w}, p={loss_p})")

    lr = cfg.learning_rate
    params.backbone = mlp_axpy(params.backbone, backbone_grads, -lr)
    params.ec.expr_mlp = mlp_axpy(params.ec.expr_mlp, ec_grads.expr_mlp, -lr)
    params.ec.classifier = mlp_axpy(params.ec.classifier,
                                    ec_grads.classifier, -lr)
    if use_ue:
        params.ue.compact_mlp = mlp_axpy(params.ue.compact_mlp,
                                         ue_grads.compact_mlp, -lr)
        for layer, g in zip(params.ue.hgnn_layers, ue_grads.hgnn_thetas):
            layer.theta = layer.theta - lr * g
        params.ue.estimator = mlp_axpy(params.ue.estimator,
                                       ue_grads.estimator, -lr)
    return loss_wce, loss_w, loss_p, beta


def _relabel_batch(client, dataset, batch_idx, cfg, kernel, prop, refine):
    """End-of-epoch relabeling pass on one batch; persists refined labels
    and returns the change log as dataset indices."""
    params = client.params
    x = dataset.features[batch_idx]
    labels = client.working_labels[batch_idx]
    deep, _ = mlp_forward(params.backbone, x)
    ue_out, _ = ue_block.ue_forward(deep, params.ue, kernel)
    if not np.any(ue_out.beta >= refine.threshold):
        return []  # no sample may be refined, so propagation cannot matter
    logits, e, _ = ec_block.ec_forward(deep, params.ec)
    y = ec_block.one_hot(labels, dataset.n_classes)
    scores = ec_block.label_propagate(e, y, prop)
    _, l_prop = ec_block.scores_to_labels(scores)
    _, l_pred = ec_block.scores_to_labels(logits)
    refined, changes = ec_block.refine_labels(ue_out.beta, l_prop, l_pred,
                                              labels, refine)
    if cfg.persist_refined:
        client.working_labels[batch_idx] = refined
    return [(int(batch_idx[i]), old, new) for i, old, new in changes]


@dataclass
class EpochMetrics:
    loss_wce: float = 0.0
    loss_w: float = 0.0
    loss_p: float = 0.0
    beta_certain_mean: float = float("nan")
    beta_uncertain_mean: float = float("nan")
    relabel_changes: list = field(default_factory=list)


def local_train_epoch(client, dataset, server, cfg, rng):
    """One local epoch: shuffled mini-batch SGD on the total loss, then
    (full method only) a relabeling pass over the same batches."""
    use_ue, use_w, use_relabel = _method_flags(cfg.method)
    kernel, reg, prop, refine = _sub_configs(cfg)
    idx = client.train_idx[rng.permutation(client.train_idx.size)]
    batches = [idx[i:i + cfg.batch_size]
               for i in range(0, idx.size, cfg.batch_size)]

    m = EpochMetrics()
    betas = []
    for batch_idx in batches:
        l_wce, l_w, l_p, beta = _batch_step(client, dataset, batch_idx,
                                            server, cfg, kernel, reg)
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
            certain, uncertain = ue_block.split_certain_uncertain(beta_all, reg)
            if certain.size:
                m.beta_certain_mean = float(np.mean(beta_all[certain]))
            if uncertain.size:
                m.beta_uncertain_mean = float(np.mean(beta_all[uncertain]))

    if use_relabel and server.round >= cfg.relabel_start_round:
        for batch_idx in batches:
            m.relabel_changes.extend(
                _relabel_batch(client, dataset, batch_idx, cfg, kernel,
                               prop, refine))
    return m


# ---------------------------------------------------------------------------
# Server aggregation
# ---------------------------------------------------------------------------

def aggregate(server, updates, mode="data-size"):
    """Combine shared tensors and prototypes from the selected clients.

    data-size mode weights by sample counts, uniform mode by 1/|S|.
    Prototype classes are averaged over contributing clients only, with
    the weights renormalized inside the contributing subset; classes no
    client contributed keep their previous global value.
    """
    if not updates:
        raise ProtocolError("aggregate: no updates")
    updates = sorted(updates, key=lambda u: u.client_id)
    names = sorted(updates[0].shared)
    for u in updates:
        if sorted(u.shared) != names:
            raise ProtocolError("aggregate: shared tensor names differ")
        for k in names:
            if u.shared[k].shape != updates[0].shared[k].shape:
                raise ProtocolError(
                    f"aggregate: shape mismatch on {k}: "
                    f"{u.shared[k].shape} vs {updates[0].shared[k].shape}")
        if any(k.startswith(PRIVATE_PREFIX) for k in u.shared):
            raise ProtocolError("aggregate: private tensor in update")

    if mode == "uniform":
        weights = np.full(len(updates), 1.0 / len(updates))
    elif mode == "data-size":
        counts = np.array([u.n_samples for u in updates], dtype=np.float64)
        weights = counts / counts.sum()
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")

    new_shared = {k: sum(w * u.shared[k] for w, u in zip(weights, updates))
                  for k in names}

    n_classes = server.prototypes.shape[0]
    new_protos = server.prototypes.copy()
    new_present = server.proto_present.copy()
    for j in range(n_classes):
        contributors = [(w, u) for w, u in zip(weights, updates)
                        if u.proto_present[j]]
        if not contributors:
            continue
        total = sum(w for w, _ in contributors)
        new_protos[j] = sum(w * u.prototypes[j] for w, u in contributors) / total
        new_present[j] = True

    return ServerState(shared=new_shared, prototypes=new_protos,
                       proto_present=new_present, round=server.round)


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

def select_clients(seed, round_idx, client_count, participation):
    m = math.ceil(participation * client_count)
    rng = child_rng(seed, "select", round_idx)
    chosen = rng.choice(client_count, size=m, replace=False)
    return sorted(int(k) for k in chosen)


def run_round(server, clients, dataset, cfg):
    """One communication round: select, push, train, aggregate."""
    t = server.round
    selected = select_clients(cfg.seed, t, len(clients), cfg.participation)
    updates = []
    per_client = {}
    for k in selected:
        client = clients[k]
        push_global(server, client)
        client.prototypes = server.prototypes.copy()
        metrics = None
        for epoch in range(cfg.local_epochs):
            rng = child_rng(cfg.seed, "train", t, k, epoch)
            metrics = local_train_epoch(client, dataset, server, cfg, rng)
        compute_prototypes(client, dataset)
        updates.append(ClientUpdate(
            client_id=k, shared=shared_tensors(client.params),
            prototypes=client.prototypes.copy(),
            proto_present=client.proto_present.copy(),
            n_samples=int(client.train_idx.size)))
        per_client[k] = metrics
    new_server = aggregate(server, updates, cfg.aggregation)
    new_server.round = t + 1
    if cfg.broadcast_all:
        for client in clients:
            push_global(new_server, client)
    return new_server, selected, per_client


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def build_dataset(cfg):
    if cfg.csv_path:
        ds = data_mod.load_embeddings_csv(cfg.csv_path)
    else:
        ds = data_mod.generate_synthetic(
            cfg.classes, cfg.feature_dim, cfg.samples_per_class, cfg.spread,
            child_rng(cfg.seed, "data"), separation=cfg.separation)
    if cfg.noise_rate > 0:
        ds = data_mod.inject_label_noise(ds, cfg.noise_rate,
                                         child_rng(cfg.seed, "noise"))
    if cfg.corruption_severity > 0 and cfg.corrupt_mislabeled:
        # corruption_rate here is the fraction of mislabeled samples whose
        # features are also degraded (label errors on low-quality inputs)
        flipped = np.flatnonzero(ds.observed_labels != ds.clean_labels)
        rng = child_rng(cfg.seed, "corrupt")
        share = cfg.corruption_rate if cfg.corruption_rate > 0 else 1.0
        n_hit = int(round(share * flipped.size))
        hit = np.sort(rng.choice(flipped, size=n_hit, replace=False))
        ds = data_mod.corrupt_features(ds, 0.0, cfg.corruption_severity,
                                       rng, indices=hit)
    elif cfg.corruption_rate > 0 and cfg.corruption_severity > 0:
        ds = data_mod.corrupt_features(ds, cfg.corruption_rate,
                                       cfg.corruption_severity,
                                       child_rng(cfg.seed, "corrupt"))
    return ds


def build_clients(cfg, dataset, partition):
    clients = []
    for k in range(cfg.client_count):
        params = init_model(cfg, child_rng(cfg.seed, "init", k))
        clients.append(ClientState(
            id=k, train_idx=partition.train_indices[k],
            test_idx=partition.test_indices[k], params=params,
            working_labels=dataset.observed_labels.copy(),
            prototypes=np.zeros((dataset.n_classes, cfg.expr_dim)),
            proto_present=np.zeros(dataset.n_classes, dtype=bool)))
    return clients


def init_server(cfg, dataset):
    params = init_model(cfg, child_rng(cfg.seed, "init-global"))
    return ServerState(shared=shared_tensors(params),
                       prototypes=np.zeros((dataset.n_classes, cfg.expr_dim)),
                       proto_present=np.zeros(dataset.n_classes, dtype=bool),
                       round=0)


def evaluate(params, dataset, idx):
    """Accuracy of the classifier argmax against the clean labels."""
    if len(idx) == 0:
        return float("nan")
    x = dataset.features[idx]
    deep, _ = mlp_forward(params.backbone, x)
    logits, _, _ = ec_block.ec_forward(deep, params.ec)
    pred = np.argmax(logits, axis=1) + 1
    return float(np.mean(pred == dataset.clean_labels[idx]))


METRIC_COLUMNS = ["round", "client_id", "split", "accuracy", "loss_wce",
                  "loss_w", "loss_p", "beta_certain_mean",
                  "beta_uncertain_mean", "relabel_count", "relabel_precision"]


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return f"{v:.12g}"
    return str(v)


def _eval_rows(round_idx, clients, dataset, pooled_idx, per_client, memo):
    """Metric rows of one round. memo maps client id -> (test, pooled)
    accuracy of its current parameters; clients missing from it are
    evaluated and added."""
    rows = []
    accs, pooled_accs = [], []
    for client in clients:
        if client.id not in memo:
            memo[client.id] = (evaluate(client.params, dataset,
                                        client.test_idx),
                               evaluate(client.params, dataset, pooled_idx))
        acc, pooled = memo[client.id]
        accs.append(acc)
        pooled_accs.append(pooled)
        m = per_client.get(client.id)
        if m is not None:
            changes = m.relabel_changes
            n_changed = len(changes)
            if n_changed:
                hits = sum(1 for i, _, new in changes
                           if new == dataset.clean_labels[i])
                precision = hits / n_changed
            else:
                precision = None
            extras = [m.loss_wce, m.loss_w, m.loss_p, m.beta_certain_mean,
                      m.beta_uncertain_mean, n_changed, precision]
        else:
            extras = [None, None, None, None, None, None, None]
        rows.append([round_idx, client.id, "test", acc] + extras)
        rows.append([round_idx, client.id, "pooled", pooled] + extras)
    rows.append([round_idx, -1, "test", float(np.nanmean(accs)),
                 None, None, None, None, None, None, None])
    rows.append([round_idx, -1, "pooled", float(np.nanmean(pooled_accs)),
                 None, None, None, None, None, None, None])
    return rows


def run_experiment(cfg, out_dir=None):
    """Full run: data, partition, clients, T rounds, per-round evaluation.

    Returns (rows, clients, server); writes metrics.csv and
    resolved_config.json when out_dir is given.
    """
    from . import config as config_mod
    dataset = build_dataset(cfg)
    partition = data_mod.dirichlet_partition(
        dataset.clean_labels, cfg.client_count, cfg.dirichlet_alpha,
        child_rng(cfg.seed, "partition"), test_fraction=cfg.test_fraction)
    clients = build_clients(cfg, dataset, partition)
    server = init_server(cfg, dataset)
    for client in clients:
        push_global(server, client)
    pooled_idx = np.concatenate(partition.test_indices)

    memo = {}
    rows = [_eval_rows(0, clients, dataset, pooled_idx, {}, memo)]
    for _ in range(cfg.rounds):
        server, selected, per_client = run_round(server, clients, dataset, cfg)
        # a round changes the parameters of the clients it trained, and of
        # every client when the new global model is broadcast to all
        if cfg.broadcast_all:
            memo.clear()
        for k in selected:
            memo.pop(k, None)
        rows.append(_eval_rows(server.round, clients, dataset, pooled_idx,
                               per_client, memo))
    flat = [r for chunk in rows for r in chunk]

    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        config_mod.save_resolved_config(
            cfg, os.path.join(out_dir, "resolved_config.json"))
        write_metrics_csv(flat, os.path.join(out_dir, "metrics.csv"))
    return flat, clients, server


def write_metrics_csv(rows, path):
    lines = [",".join(METRIC_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def final_mean_accuracy(rows, split="test"):
    """Mean personalized accuracy of the aggregate row at the last round."""
    last = max(r[0] for r in rows)
    for r in rows:
        if r[0] == last and r[1] == -1 and r[2] == split:
            return r[3]
    raise ValueError("no aggregate row found")
