"""Federated protocol: client local training, prototype regularization,
server aggregation of shared parameters and prototypes, and the round loop.

Only the uncertainty estimator is private; every other tensor is shared
and aggregated. All randomness is drawn from streams keyed by
(seed, purpose, round, client), so scheduling cannot change results.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Pipe

import numpy as np

from . import data as data_mod
from . import ec_block, ue_block
from .config import ConfigError
from .numcore import Layout, Params, child_rng, init_params, mlp_backward, \
    mlp_forward, zero_vector


class ProtocolError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Model parameters: one vector, shared head and private tail
# ---------------------------------------------------------------------------

# the blocks in the order init_model draws them
DRAW_ORDER = ("backbone", "ue.compact", "ue.hgnn", "ue.estimator", "ec.expr",
              "ec.classifier")


def model_layout(cfg):
    """Backbone, EC and the shared UE blocks, then the private estimator:
    vector[:n_shared] is what the server sees, vector[n_shared:] never
    leaves the client."""
    layout = Layout().add("backbone", [cfg.feature_dim, cfg.backbone_dim],
                          ["relu"])
    ec_block.add_ec(layout, cfg.backbone_dim, cfg.expr_dim, cfg.classes)
    return ue_block.add_ue(layout, cfg.backbone_dim, cfg.compact_dim,
                           cfg.relational_dim, cfg.estimator_hidden,
                           cfg.hgnn_layers)


def init_model(layout, rng):
    return init_params(layout, rng, DRAW_ORDER)


def shared_tensors(params):
    """The shared head of the model vector, as a view: a round builds its
    updates after every client has trained and aggregates them before any
    client is written again, so a copy would only be thrown away."""
    return params.vector[:params.layout.n_shared]


# ---------------------------------------------------------------------------
# Client / server state
# ---------------------------------------------------------------------------

@dataclass
class ClientState:
    id: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    params: Params
    working_labels: np.ndarray    # dataset-length; refined labels persist here
    prototypes: np.ndarray = None  # C x d_e
    proto_present: np.ndarray = None


@dataclass
class ServerState:
    shared: np.ndarray            # the shared head of the global model
    prototypes: np.ndarray
    proto_present: np.ndarray
    round: int = 0


@dataclass
class ClientUpdate:
    client_id: int
    shared: np.ndarray
    prototypes: np.ndarray
    proto_present: np.ndarray
    n_samples: int


def push_global(server, client):
    """Overwrite the client's shared head with the global model. The
    private (estimator) tail is never touched."""
    client.params.vector[:client.params.layout.n_shared] = server.shared


# ---------------------------------------------------------------------------
# Prototypes
# ---------------------------------------------------------------------------

def batch_prototypes(e, labels, n_classes):
    """Per-class mean of the rows of e; returns (protos, present, counts).

    A stable sort groups each class's rows in index order, so each sum
    adds the same rows in the same order as e[labels == j].mean(axis=0)
    (np.add.reduceat would not).
    """
    labels = np.asarray(labels, dtype=np.int64)
    grouped = e[np.argsort(labels, kind="stable")]
    counts = np.bincount(labels - 1, minlength=n_classes)[:n_classes]
    protos = np.zeros((n_classes, e.shape[1]))
    start = 0
    for j, count in enumerate(counts.tolist()):
        if count:
            protos[j] = np.add.reduce(grouped[start:start + count],
                                      axis=0) / count
            start += count
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
    deep, _ = mlp_forward(client.params, "backbone", x)
    e, _ = mlp_forward(client.params, "ec.expr", deep)
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


def _batch_step(client, dataset, batch_idx, server, cfg, grads):
    """Forward, total loss, backward into grads (zeroed first) and SGD
    update for one batch. Returns the loss pieces and the batch beta
    vector."""
    use_ue, use_w, _ = _method_flags(cfg.method)
    params = client.params
    x = dataset.features[batch_idx]
    labels = client.working_labels[batch_idx]
    n = x.shape[0]
    grads.vector[:] = 0.0

    deep, backbone_cache = mlp_forward(params, "backbone", x)

    if use_ue:
        ue_out, ue_cache = ue_block.ue_forward(deep, params, cfg)
        beta = ue_out.beta
    else:
        beta = np.zeros(n)

    logits, e, ec_cache = ec_block.ec_forward(deep, params)
    loss_wce, grad_logits, grad_beta_wce = ue_block.weighted_ce_loss(
        logits, labels, beta)

    loss_w, grad_beta_w = 0.0, np.zeros(n)
    if use_ue and use_w:
        loss_w, grad_beta_w, _ = ue_block.weight_reg_loss(beta, cfg)

    protos, present, counts = batch_prototypes(e, labels, dataset.n_classes)
    loss_p, grad_protos, _ = prototype_loss(
        protos, present, server.prototypes, server.proto_present)
    grad_e = np.zeros_like(e)
    for j in np.flatnonzero(np.any(grad_protos != 0.0, axis=1)):
        rows = labels == j + 1
        grad_e[rows] = cfg.lambda2 * grad_protos[j] / counts[j]

    grad_deep = ec_block.ec_backward(params, ec_cache, grad_logits, grads,
                                     grad_e)
    if use_ue:
        grad_beta = grad_beta_wce + cfg.lambda1 * grad_beta_w
        grad_deep = grad_deep + ue_block.ue_backward(params, ue_cache,
                                                     grad_beta, grads)
    mlp_backward(params, "backbone", backbone_cache, grad_deep, grads)

    total = loss_wce + cfg.lambda1 * loss_w + cfg.lambda2 * loss_p
    if not np.isfinite(total):
        raise ProtocolError(
            f"client {client.id}: non-finite loss "
            f"(wce={loss_wce}, w={loss_w}, p={loss_p})")

    # the baseline's UE gradient stays zero, which leaves its UE unchanged;
    # scaling grads in place is the same bits as subtracting lr * grads
    grads.vector *= cfg.learning_rate
    params.vector -= grads.vector
    return loss_wce, loss_w, loss_p, beta


def _relabel_pass(client, dataset, idx, cfg):
    """End-of-epoch relabeling pass over the epoch's batches of idx at the
    threshold cfg.delta; persists refined labels and returns the change
    log as dataset indices.

    The equal-size batches run as one (B, batch, d) stack and a shorter
    last batch as a stack of one. Batch b's refinement reads only batch
    b's rows and the parameters are frozen, so a stack gives the same
    labels as one batch at a time.
    """
    params = client.params
    refine = ec_block.RefineConfig(cfg.delta)
    whole = idx.size - idx.size % cfg.batch_size
    stacks = [idx[:whole].reshape(-1, cfg.batch_size), idx[whole:][None]]
    log = []
    for stack in stacks:
        if not stack.size:
            continue
        deep, _ = mlp_forward(params, "backbone", dataset.features[stack])
        beta = ue_block.ue_forward(deep, params, cfg)[0].beta
        # a batch where no beta reaches delta can change no label, so
        # only batches with a candidate go on to propagation
        candidate = np.any(beta >= refine.threshold, axis=-1)
        if not np.any(candidate):
            continue
        stack, deep, beta = stack[candidate], deep[candidate], beta[candidate]
        labels = client.working_labels[stack]
        logits, e, _ = ec_block.ec_forward(deep, params)
        y = ec_block.one_hot(labels, dataset.n_classes)
        scores = ec_block.label_propagate(e, y, cfg)
        _, l_prop = ec_block.scores_to_labels(scores)
        _, l_pred = ec_block.scores_to_labels(logits)
        refined, changes = ec_block.refine_labels(beta, l_prop, l_pred,
                                                  labels, refine)
        if cfg.persist_refined:
            client.working_labels[stack] = refined
        rows = stack.ravel()
        log.extend((int(rows[i]), old, new) for i, old, new in changes)
    return log


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
    use_ue, _, use_relabel = _method_flags(cfg.method)
    idx = client.train_idx[rng.permutation(client.train_idx.size)]
    batches = [idx[i:i + cfg.batch_size]
               for i in range(0, idx.size, cfg.batch_size)]

    m = EpochMetrics()
    betas = []
    grads = Params(client.params.layout)
    for batch_idx in batches:
        l_wce, l_w, l_p, beta = _batch_step(client, dataset, batch_idx,
                                            server, cfg, grads)
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
            certain, uncertain = ue_block.split_certain_uncertain(beta_all, cfg)
            if certain.size:
                m.beta_certain_mean = float(np.mean(beta_all[certain]))
            if uncertain.size:
                m.beta_uncertain_mean = float(np.mean(beta_all[uncertain]))

    if use_relabel and server.round >= cfg.relabel_start_round:
        m.relabel_changes = _relabel_pass(client, dataset, idx, cfg)
    return m


# ---------------------------------------------------------------------------
# Server aggregation
# ---------------------------------------------------------------------------

def aggregate(server, updates, mode="data-size"):
    """Combine shared heads and prototypes from the selected clients.

    data-size mode weights by sample counts, uniform mode by 1/|S|.
    Prototype classes are averaged over contributing clients only, with
    the weights renormalized inside the contributing subset; classes no
    client contributed keep their previous global value.
    """
    if not updates:
        raise ProtocolError("aggregate: no updates")
    updates = sorted(updates, key=lambda u: u.client_id)
    for u in updates:
        # a vector of any other length is not the shared head: one that
        # carries private entries is longer
        if np.shape(u.shared) != server.shared.shape:
            raise ProtocolError(
                f"aggregate: client {u.client_id} sent shape "
                f"{np.shape(u.shared)}, the shared head is "
                f"{server.shared.shape}")

    if mode == "uniform":
        weights = np.full(len(updates), 1.0 / len(updates))
    elif mode == "data-size":
        counts = np.array([u.n_samples for u in updates], dtype=np.float64)
        weights = counts / counts.sum()
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")

    # summed per client in client-id order, the same bits as
    # sum(w * u.shared); a (K, P) matmul rounds differently. The head is
    # model-sized, so it gets a map of its own like a model's vector.
    new_shared = zero_vector(server.shared.size)
    term = np.empty(server.shared.size)
    for w, u in zip(weights, updates):
        np.multiply(w, u.shared, out=term)
        new_shared += term

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

def round_size(participation, client_count):
    """Number of clients a round selects; the workers' slot count too."""
    return math.ceil(participation * client_count)


def select_clients(seed, round_idx, client_count, participation):
    rng = child_rng(seed, "select", round_idx)
    chosen = rng.choice(client_count, size=round_size(participation,
                                                      client_count),
                        replace=False)
    return sorted(int(k) for k in chosen)


def _train_client(server, client, dataset, cfg):
    """Push the global model, run the local epochs and recompute the
    client's prototypes; returns the last epoch's metrics."""
    push_global(server, client)
    client.prototypes = server.prototypes.copy()
    metrics = None
    for epoch in range(cfg.local_epochs):
        rng = child_rng(cfg.seed, "train", server.round, client.id, epoch)
        metrics = local_train_epoch(client, dataset, server, cfg, rng)
    compute_prototypes(client, dataset)
    return metrics


def split_longest_first(selected, clients, n_shares):
    """Deal the selected client ids into n_shares lists: by descending
    training-set size, each client joins the share with the fewest
    training samples so far (ties go to the lower share)."""
    shares = [[] for _ in range(n_shares)]
    load = [0] * n_shares
    for k in sorted(selected, key=lambda k: -clients[k].train_idx.size):
        i = load.index(min(load))
        shares[i].append(k)
        load[i] += clients[k].train_idx.size
    return shares


def run_round(server, clients, dataset, cfg, workers=None, memo=None):
    """One communication round: select, push, train, aggregate.

    With workers (the Workers of the running experiment), the selected
    clients are split longest-first between this process and the workers.
    memo, when given, maps client id -> (test, pooled) accuracy of the
    client's current parameters: each process evaluates the clients it
    trains, and a broadcast to all clients empties the memo.
    """
    t = server.round
    selected = select_clients(cfg.seed, t, len(clients), cfg.participation)
    n_workers = len(workers.conns) if workers is not None else 0
    shares = split_longest_first(selected, clients, 1 + n_workers)
    measure = memo is not None and not cfg.broadcast_all
    if n_workers:
        workers.dispatch(server, clients, shares[1:], measure)
    per_client = {k: _train_client(server, clients[k], dataset, cfg)
                  for k in shares[0]}
    measured = {}
    if measure:
        pooled_idx = pooled_test_idx(clients)
        measured = {k: accuracies(clients[k], dataset, pooled_idx)
                    for k in shares[0]}
    if n_workers:
        measured.update(workers.collect(clients, per_client))
    updates = [ClientUpdate(
        client_id=k, shared=shared_tensors(clients[k].params),
        prototypes=clients[k].prototypes.copy(),
        proto_present=clients[k].proto_present.copy(),
        n_samples=int(clients[k].train_idx.size)) for k in selected]
    new_server = aggregate(server, updates, cfg.aggregation)
    new_server.round = t + 1
    if cfg.broadcast_all:
        for client in clients:
            push_global(new_server, client)
    if memo is not None:
        if cfg.broadcast_all:
            memo.clear()
        memo.update(measured)
    return new_server, selected, per_client


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

class Workers:
    """Forked processes that train clients of a round in parallel with
    the calling process.

    Forked once per experiment, after set-up, so every worker holds the
    dataset, the config and a copy of the clients. Parameters travel
    through an anonymous shared mmap: one float64 row per slot that is a
    client's model vector (its private tail in, all of it back) plus one
    whose head is the server's shared head, and one int64 row of working
    labels per slot. The pipes carry client ids, prototypes, epoch
    metrics and accuracies. Results are the same bits as training
    in-process: every client's RNG is keyed by (seed, round, client,
    epoch) and aggregation sorts updates by client id.
    """

    def __init__(self, clients, dataset, cfg):
        self.conns, self.pids = [], []
        n_workers = worker_count(cfg)
        if n_workers <= 0:
            return
        slots = round_size(cfg.participation, len(clients))
        self.clients, self.dataset, self.cfg = clients, dataset, cfg
        self.pooled_idx = pooled_test_idx(clients)
        width = clients[0].params.vector.size
        self.n_shared = clients[0].params.layout.n_shared
        n_labels = clients[0].working_labels.size
        buf = mmap.mmap(-1, 8 * ((slots + 1) * width + slots * n_labels))
        self.rows = np.frombuffer(buf, np.float64, (slots + 1) * width)
        self.rows = self.rows.reshape(slots + 1, width)  # last: server
        self.labels = np.frombuffer(buf, np.int64, slots * n_labels,
                                    offset=8 * (slots + 1) * width)
        self.labels = self.labels.reshape(slots, n_labels)
        try:
            for _ in range(n_workers):
                self._fork()
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise

    def _fork(self):
        mine, theirs = Pipe()
        pid = os.fork()
        if pid == 0:  # worker: serve until the pipe closes, never return
            status = 1
            try:
                for conn in self.conns + [mine]:
                    conn.close()
                self._serve(theirs)
                status = 0
            finally:
                os._exit(status)
        theirs.close()
        self.conns.append(mine)
        self.pids.append(pid)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        """Reap every worker: an idle worker exits when its pipe closes;
        on an error the workers may still be busy and are killed."""
        for conn in self.conns:
            conn.close()
        for pid in self.pids:
            if exc_type is not None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.conns, self.pids = [], []

    # -- calling process ---------------------------------------------------

    def dispatch(self, server, clients, shares, measure):
        """Hand one share of the round's clients to each worker; with
        measure, the workers also evaluate the clients they train. A
        worker gets a client's private tail only: the push of the global
        model overwrites the shared head."""
        n = self.n_shared
        self.rows[-1, :n] = server.shared
        slot = 0
        for conn, share in zip(self.conns, shares):
            jobs = []
            for k in share:
                self.rows[slot, n:] = clients[k].params.vector[n:]
                self.labels[slot] = clients[k].working_labels
                jobs.append((k, slot))
                slot += 1
            conn.send((server.round, server.prototypes, server.proto_present,
                       jobs, measure))

    def collect(self, clients, per_client):
        """Read the trained clients back; fills per_client with their epoch
        metrics and returns client id -> (test, pooled) accuracy for the
        clients the workers evaluated. A worker's exception is re-raised."""
        measured = {}
        for conn, pid in zip(self.conns, self.pids):
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise ProtocolError(f"worker {pid} is gone") from exc
            if status == "error":
                exc, trace = payload
                raise exc from RuntimeError(f"in worker {pid}:\n{trace}")
            for k, slot, metrics, protos, present, accs in payload:
                client = clients[k]
                client.params.vector[:] = self.rows[slot]
                client.working_labels[:] = self.labels[slot]
                client.prototypes, client.proto_present = protos, present
                per_client[k] = metrics
                if accs is not None:
                    measured[k] = accs
        return measured

    # -- worker process ----------------------------------------------------

    def _serve(self, conn):
        while True:
            try:
                job = conn.recv()
            except EOFError:
                return
            try:
                reply = ("ok", self._train(*job))
            except Exception as exc:  # noqa: BLE001 - re-raised by collect
                reply = ("error", (exc, traceback.format_exc()))
            try:
                conn.send(reply)
            except BrokenPipeError:
                return
            except Exception:  # noqa: BLE001 - an exception pickle cannot take
                exc, trace = reply[1]
                conn.send(("error", (RuntimeError(
                    f"{type(exc).__name__}: {exc}"), trace)))

    def _train(self, round_idx, prototypes, proto_present, jobs, measure):
        n = self.n_shared
        server = ServerState(shared=self.rows[-1, :n], prototypes=prototypes,
                             proto_present=proto_present, round=round_idx)
        out = []
        for k, slot in jobs:
            client = self.clients[k]
            client.params.vector[n:] = self.rows[slot, n:]
            client.working_labels[:] = self.labels[slot]
            metrics = _train_client(server, client, self.dataset, self.cfg)
            self.rows[slot] = client.params.vector
            self.labels[slot] = client.working_labels
            accs = None
            if measure:
                accs = accuracies(client, self.dataset, self.pooled_idx)
            out.append((k, slot, metrics, client.prototypes,
                        client.proto_present, accs))
        return out


def blas_threads(cpus):
    """Threads one BLAS call may use, read as OpenBLAS reads them:
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else every usable CPU."""
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(key, ""))
        except ValueError:
            continue
        if n > 0:
            return min(n, cpus)
    return cpus


def worker_count(cfg):
    """One worker per BLAS call's worth of usable CPUs beyond this process,
    and no more than the clients a round selects can keep busy.

    So none while BLAS may use every CPU (its default): two processes
    with a full BLAS thread pool each oversubscribe the CPUs and made a
    run slower than one process. None where the platform lacks os.fork or
    os.sched_getaffinity (a fork is unsafe with the macOS system
    frameworks, and Windows has none), and none in a process that already
    runs other threads, because a fork copies only the calling thread and
    a lock another thread holds would stay locked in the worker."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    if threading.active_count() > 1:
        return 0
    cpus = len(os.sched_getaffinity(0))
    processes = cpus // blas_threads(cpus)
    return min(processes, round_size(cfg.participation, cfg.client_count)) - 1


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def build_dataset(cfg):
    if cfg.csv_path:
        ds = data_mod.load_embeddings_csv(cfg.csv_path)
        for key, want, got in (("feature_dim", cfg.feature_dim,
                                ds.features.shape[1]),
                               ("classes", cfg.classes, ds.n_classes)):
            if got != want:
                raise ConfigError(f"{key}: config says {want}, but "
                                  f"{cfg.csv_path} has {got}")
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
    layout = model_layout(cfg)
    clients = []
    for k in range(cfg.client_count):
        params = init_model(layout, child_rng(cfg.seed, "init", k))
        clients.append(ClientState(
            id=k, train_idx=partition.train_indices[k],
            test_idx=partition.test_indices[k], params=params,
            working_labels=dataset.observed_labels.copy(),
            prototypes=np.zeros((dataset.n_classes, cfg.expr_dim)),
            proto_present=np.zeros(dataset.n_classes, dtype=bool)))
    return clients


def init_server(cfg, dataset):
    params = init_model(model_layout(cfg), child_rng(cfg.seed, "init-global"))
    return ServerState(shared=shared_tensors(params),
                       prototypes=np.zeros((dataset.n_classes, cfg.expr_dim)),
                       proto_present=np.zeros(dataset.n_classes, dtype=bool),
                       round=0)


def evaluate(params, dataset, idx):
    """Accuracy of the classifier argmax against the clean labels."""
    if len(idx) == 0:
        return float("nan")
    x = dataset.features[idx]
    deep, _ = mlp_forward(params, "backbone", x)
    logits, _, _ = ec_block.ec_forward(deep, params)
    pred = np.argmax(logits, axis=1) + 1
    return float(np.mean(pred == dataset.clean_labels[idx]))


def accuracies(client, dataset, pooled_idx):
    """(test, pooled) accuracy of a client's current parameters."""
    return (evaluate(client.params, dataset, client.test_idx),
            evaluate(client.params, dataset, pooled_idx))


def pooled_test_idx(clients):
    """Every client's test indices, in client order."""
    return np.concatenate([c.test_idx for c in clients])


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
            memo[client.id] = accuracies(client, dataset, pooled_idx)
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
    pooled_idx = pooled_test_idx(clients)

    memo = {}
    rows = [_eval_rows(0, clients, dataset, pooled_idx, {}, memo)]
    with Workers(clients, dataset, cfg) as workers:
        for _ in range(cfg.rounds):
            server, selected, per_client = run_round(
                server, clients, dataset, cfg, workers, memo)
            rows.append(_eval_rows(server.round, clients, dataset,
                                   pooled_idx, per_client, memo))
    flat = [r for chunk in rows for r in chunk]

    if out_dir is not None:
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
