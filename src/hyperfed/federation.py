"""Federated protocol: client local training, prototype regularization,
server aggregation of shared parameters and prototypes, and the round loop.

Only the uncertainty estimator is private; every other tensor is shared
and aggregated. All randomness is drawn from streams keyed by
(seed, purpose, round, client), so scheduling cannot change results.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import data as data_mod
from . import ec_block, ue_block
from .config import METHODS, ConfigError, save_resolved_config
from .numcore import Layout, Params, child_rng, draw_plan, forward, \
    init_params, mlp_backward, mlp_forward, zero_vector
from .processes import Forked, ProtocolError, process_slots, shared_copy


# ---------------------------------------------------------------------------
# Model parameters: one vector, shared head and private tail
# ---------------------------------------------------------------------------

# the blocks in the order init_model draws them
DRAW_ORDER = ("backbone", "ue.compact", "ue.hgnn", "ue.estimator", "ec.expr",
              "ec.classifier")


def model_layout(cfg, ue=None):
    """Backbone and EC, then, for a method whose METHODS row (or ue) has
    the UE block, the shared UE blocks and the private estimator: the
    server sees vector[:n_shared], vector[n_shared:] never leaves a client."""
    layout = Layout().add("backbone", [cfg.feature_dim, cfg.backbone_dim],
                          ["relu"])
    ec_block.add_ec(layout, cfg.backbone_dim, cfg.expr_dim, cfg.classes)
    if METHODS[cfg.method][0] if ue is None else ue:
        ue_block.add_ue(layout, cfg.backbone_dim, cfg.compact_dim,
                        cfg.relational_dim, cfg.estimator_hidden,
                        cfg.hgnn_layers)
    return layout


@functools.lru_cache(maxsize=1)
def _layout_and_plan(cfg):
    """cfg's model layout and init_model's draw plan for it."""
    layout = model_layout(cfg)
    return layout, draw_plan(layout, DRAW_ORDER, model_layout(cfg, ue=True))


def init_model(cfg, rngs):
    """Models of cfg's method, one per stream of rngs, by one draw plan:
    each stream goes through every block of DRAW_ORDER and draws the
    blocks of the method's layout, so a block gets the same values for
    every method. A run's clients and its server share one config, which
    cannot change once checked, so its layouts and plan are worked out
    once per config."""
    layout, plan = _layout_and_plan(cfg)
    return [init_params(layout, rng, plan) for rng in rngs]


def shared_tensors(params):
    """The shared head of the model vector, as a view: a round builds its
    updates after every client has trained and aggregates them before any
    client is written again, so a copy would only be thrown away."""
    return params.vector[:params.layout.n_shared]


# ---------------------------------------------------------------------------
# Client / server state
# ---------------------------------------------------------------------------

class ClientStack:
    """A run's buffers for training up to K clients of one layout in
    lockstep: (K, P) parameter and gradient matrices, with the Params
    views of every row prefix and of every single row. Every client of a
    run holds the same ClientStack, and each process that trains them
    fills its own copy: a forked process writes the pages of the maps
    only for itself.

    Building a Params costs tens of microseconds, so the views are built
    once, when the stack grows; a model-sized heap matrix would leave a
    hole behind (see numcore.zero_vector), so the matrices are maps."""

    def __init__(self, layout):
        self.layout = layout
        self.rows = 0

    def reserve(self, k):
        """Room for k clients; a larger stack replaces the smaller one."""
        if k <= self.rows:
            return
        layout, size = self.layout, self.layout.size
        self.params = zero_vector(k * size).reshape(k, size)
        grads = zero_vector(k * size).reshape(k, size)
        # prefix[j] holds rows [:j + 1], single[j] row j alone
        self.prefix = [(Params(layout, self.params[:j]),
                        Params(layout, grads[:j])) for j in range(1, k + 1)]
        self.single = [(Params(layout, self.params[j:j + 1]),
                        Params(layout, grads[j:j + 1])) for j in range(k)]
        self.rows = k


@dataclass
class ClientState:
    id: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    params: Params
    working_labels: np.ndarray    # the run's, shared; the client's rows only
    stack: ClientStack = None     # local training's, shared by the run


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
            np.add.reduce(grouped[start:start + count], axis=0,
                          out=protos[j])
            start += count
    protos /= np.maximum(counts, 1)[:, None]  # an absent class stays 0
    return protos, counts > 0, counts


def prototype_loss(local_protos, local_present, global_protos, global_present):
    """Mean L1 distance over classes present on both sides; subgradient
    w.r.t. the local prototypes. Returns (loss, grad_local), both zero
    when no class is present on both sides."""
    overlap = np.asarray(local_present) & np.asarray(global_present)
    grad = np.zeros_like(local_protos)
    m = int(np.count_nonzero(overlap))
    if m == 0:
        return 0.0, grad
    diff = local_protos[overlap] - global_protos[overlap]
    loss = float(np.add.reduce(np.abs(diff), axis=None)) / m
    np.sign(diff, out=diff)
    diff /= m
    grad[overlap] = diff
    return loss, grad


def prototype_row_grads(grad_protos, counts, labels, weight):
    """The gradient that weight times the prototype loss pushes into the
    rows of e: row i gets weight * grad_protos[j] / counts[j] for its
    class j = labels[i] - 1 (counts as from batch_prototypes). A class
    absent from the batch has no rows, and a class with a zero gradient
    row gives zero rows."""
    per_class = weight * grad_protos
    per_class /= np.maximum(counts, 1)[:, None]
    return per_class[np.asarray(labels) - 1]


def compute_prototypes(client, dataset):
    """Full-pass class means of the expression features over the client's
    training partition (current working labels, no gradient)."""
    idx = client.train_idx
    e = forward(client.params, ("backbone", "ec.expr"),
                dataset.features[idx])
    protos, present, _ = batch_prototypes(e, client.working_labels[idx],
                                          dataset.n_classes)
    return protos, present


# ---------------------------------------------------------------------------
# Local training
# ---------------------------------------------------------------------------

def _batches(idx, size):
    """An epoch's batches of the shuffled indices idx: its full batches as
    a (B, size) array, in order, and the shorter tail that is left (empty
    when size divides idx.size)."""
    whole = idx.size - idx.size % size
    return idx[:whole].reshape(-1, size), idx[whole:]


def _batch_step(params, grads, dataset, rows, labels, ids, server, cfg):
    """Forward, total loss, backward into grads and SGD update for one
    batch of each of k clients in lockstep: params and grads are stacks
    of k models, rows (k, n) the dataset indices of the batches and labels
    (k, n) their working labels, ids the client ids. The backward passes
    overwrite every gradient of the model, so grads needs no zeroing.
    Batch j runs only with model j, in kernels that give every slice of a
    stack the bits of the slice alone. Returns the loss pieces, one per
    client, and the (k, n) beta."""
    use_ue, use_w, _ = METHODS[cfg.method]
    x = dataset.features[rows]
    k, n = rows.shape

    deep, backbone_cache = mlp_forward(params, "backbone", x)

    if use_ue:
        beta, ue_cache = ue_block.ue_forward(deep, params, cfg)
    else:
        beta = np.zeros((k, n))

    logits, e, ec_cache = ec_block.ec_forward(deep, params)
    loss_wce, grad_logits, grad_beta_wce = ue_block.weighted_ce_loss(
        logits, labels, beta)

    loss_w, grad_beta_w = np.zeros(k), np.zeros((k, n))
    if use_w:
        loss_w, grad_beta_w = ue_block.weight_reg_loss(beta, cfg)

    # prototypes stay per client: each batch against the global ones
    loss_p = np.zeros(k)
    grad_e = np.empty_like(e)
    for j in range(k):
        protos, present, counts = batch_prototypes(e[j], labels[j],
                                                   dataset.n_classes)
        loss_p[j], grad_protos = prototype_loss(
            protos, present, server.prototypes, server.proto_present)
        grad_e[j] = prototype_row_grads(grad_protos, counts, labels[j],
                                        cfg.lambda2)

    grad_deep = ec_block.ec_backward(params, ec_cache, grad_logits, grads,
                                     grad_e)
    if use_ue:
        grad_beta = grad_beta_wce + cfg.lambda1 * grad_beta_w
        grad_deep += ue_block.ue_backward(params, ue_cache, grad_beta, grads)
    # the data has no gradient: skip the backbone's input gradient
    mlp_backward(params, "backbone", backbone_cache, grad_deep, grads,
                 input_grad=False)

    finite = np.isfinite(loss_wce + cfg.lambda1 * loss_w
                         + cfg.lambda2 * loss_p)
    if not finite.all():
        j = int(np.argmin(finite))  # the first non-finite one
        raise ProtocolError(
            f"client {ids[j]}: non-finite loss "
            f"(wce={loss_wce[j]}, w={loss_w[j]}, p={loss_p[j]})")

    # scaling grads in place is the same bits as subtracting lr * grads
    grads.vector *= cfg.learning_rate
    params.vector -= grads.vector
    return loss_wce, loss_w, loss_p, beta


def _relabel_pass(client, dataset, idx, cfg):
    """End-of-epoch relabeling pass over the epoch's batches of idx at the
    threshold cfg.delta; persists refined labels and returns the change
    log as dataset indices.

    The full batches of _batches run as one (B, batch, d) stack and its
    tail as a stack of one. Batch b's refinement reads only batch
    b's rows and the parameters are frozen, so a stack gives the same
    labels as one batch at a time.
    """
    params = client.params
    refine = ec_block.RefineConfig(cfg.delta)
    whole, tail = _batches(idx, cfg.batch_size)
    log = []
    for stack in (whole, tail[None]):
        if not stack.size:
            continue
        deep, _ = mlp_forward(params, "backbone", dataset.features[stack])
        beta = ue_block.ue_forward(deep, params, cfg)[0]
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
        refined, changes = ec_block.refine_labels(
            beta, ec_block.scores_to_labels(scores),
            ec_block.scores_to_labels(logits), labels, refine)
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


def local_train_epoch(clients, dataset, server, cfg, rngs):
    """One local epoch of each client, with the random stream of the same
    position in rngs: shuffled mini-batch SGD on the total loss, then
    (full method only) a relabeling pass over the same batches. Returns
    one EpochMetrics per client, in order.

    The clients train in lockstep on their ClientStack, clients[r] in
    row r; they must come longest-first (non-increasing full-batch
    counts, or ValueError), as split_longest_first deals them. Step t
    runs batch t of every client that still has a full batch, the first
    K_t rows of the stack, as one (K_t, batch, d) stack; then each
    shorter last batch runs as a stack of one. Each client takes its own
    batches in order, and no matrix product mixes rows of two batches,
    so every client gets the bits it gets when it trains alone.
    """
    if not clients:
        return []
    use_ue, _, use_relabel = METHODS[cfg.method]
    size = cfg.batch_size
    full = [c.train_idx.size // size for c in clients]
    if full != sorted(full, reverse=True):
        raise ValueError(f"local_train_epoch: not longest-first: {full}")
    idx = [c.train_idx[rng.permutation(c.train_idx.size)]
           for c, rng in zip(clients, rngs)]
    batches = [_batches(i, size) for i in idx]

    # the full batches, padded to full[0] per client; working labels
    # change only in the relabel pass, after the last step
    stack = clients[0].stack
    stack.reserve(len(clients))
    rows = np.zeros((len(clients), full[0], size), dtype=np.int64)
    labels = np.zeros_like(rows)
    for r, (client, (whole, _)) in enumerate(zip(clients, batches)):
        rows[r, :full[r]] = whole
        labels[r, :full[r]] = client.working_labels[whole]
        stack.params[r] = client.params.vector
    # (params, grads, first stack row, batch rows, batch labels) per step
    steps = []
    for t in range(full[0]):
        k = sum(f > t for f in full)
        steps.append((*stack.prefix[k - 1], 0, rows[:k, t], labels[:k, t]))
    for r, (client, (_, tail)) in enumerate(zip(clients, batches)):
        if tail.size:
            steps.append((*stack.single[r], r, tail[None],
                          client.working_labels[tail][None]))

    # per client, the sums of the loss pieces times the batch sizes
    sums = np.zeros((3, len(clients)))
    betas = [[] for _ in clients]
    for params, grads, first, batch_rows, batch_labels in steps:
        k, n = batch_rows.shape
        ids = [c.id for c in clients[first:first + k]]
        l_wce, l_w, l_p, beta = _batch_step(params, grads, dataset,
                                            batch_rows, batch_labels, ids,
                                            server, cfg)
        sums[:, first:first + k] += np.stack([l_wce, l_w, l_p]) * n
        for j in range(k):
            betas[first + j].append(beta[j])
    sums /= [client_idx.size for client_idx in idx]

    metrics = []
    for r, (client, client_idx) in enumerate(zip(clients, idx)):
        client.params.vector[:] = stack.params[r]
        m = EpochMetrics(*sums[:, r].tolist())
        if use_ue:
            beta_all = np.concatenate(betas[r])
            if beta_all.size >= 2:
                certain, uncertain = ue_block.split_certain_uncertain(
                    beta_all, cfg)
                if certain.size:
                    m.beta_certain_mean = float(np.mean(beta_all[certain]))
                if uncertain.size:
                    m.beta_uncertain_mean = float(
                        np.mean(beta_all[uncertain]))
        if use_relabel and server.round >= cfg.relabel_start_round:
            m.relabel_changes = _relabel_pass(client, dataset, client_idx,
                                              cfg)
        metrics.append(m)
    return metrics


# ---------------------------------------------------------------------------
# Server aggregation
# ---------------------------------------------------------------------------

def aggregate(server, updates, mode):
    """Combine shared heads and prototypes from the selected clients into
    server, in place.

    data-size mode weights by sample counts, uniform mode by 1/|S|.
    Prototype classes are averaged over contributing clients only, with
    the weights renormalized inside the contributing subset; classes no
    client contributed keep their previous global value. Every step that
    can refuse the updates runs before the first write, so a refused call
    leaves server as it was.
    """
    if not updates:
        raise ProtocolError("aggregate: no updates")
    updates = sorted(updates, key=lambda u: u.client_id)
    for u in updates:
        # a vector of any other length is not the shared head: one that
        # carries private entries is longer
        for name in ("shared", "prototypes", "proto_present"):
            got, want = np.shape(getattr(u, name)), getattr(server, name).shape
            if got != want:
                raise ProtocolError(f"aggregate: client {u.client_id} sent "
                                    f"{name} of shape {got}, not {want}")

    if mode == "uniform":
        weights = np.full(len(updates), 1.0 / len(updates))
    elif mode == "data-size":
        counts = np.array([u.n_samples for u in updates], dtype=np.float64)
        weights = counts / counts.sum()
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")

    # each class's prototype is the weighted mean over the clients that
    # hold it. A client without the class adds a zero term and a zero
    # weight, which leave a sum that starts at +0.0 unchanged, so every
    # class adds the same terms in the same (client-id) order as a sum
    # over its holders alone. The sum is a loop: np.add.reduce over the
    # updates' axis may sum pairwise (it does for one class of width 1).
    present = np.array([u.proto_present for u in updates], dtype=bool)
    shares = weights[:, None] * present
    protos = np.array([u.prototypes for u in updates])
    protos[~present] = 0.0
    terms = shares[:, :, None] * protos
    sums, totals = np.zeros_like(server.prototypes), np.zeros(present.shape[1])
    for term, share in zip(terms, shares):
        sums += term
        totals += share
    held = present.any(axis=0)
    means = sums[held] / totals[held, None]

    # summed per client in client-id order from +0.0, the same bits as
    # sum(w * u.shared); a (K, P) matmul rounds differently
    server.shared.fill(0.0)
    term = np.empty(server.shared.size)
    for w, u in zip(weights, updates):
        np.multiply(w, u.shared, out=term)
        server.shared += term
    server.prototypes[held] = means
    server.proto_present |= held


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

def round_size(participation, client_count):
    """Number of clients a round selects: participation times
    client_count, rounded up. The product is taken on the decimal the
    config holds, so 0.07 of 100 clients selects 7, where the float
    product 7.000000000000001 would round up to 8."""
    return math.ceil(Fraction(str(participation)) * client_count)


def select_clients(seed, round_idx, client_count, participation):
    rng = child_rng(seed, "select", round_idx)
    chosen = rng.choice(client_count, size=round_size(participation,
                                                      client_count),
                        replace=False)
    return sorted(int(k) for k in chosen)


@dataclass
class ClientRound:
    """One client's round: the last local epoch's metrics and the
    prototypes it sends the server."""
    client_id: int
    metrics: EpochMetrics
    prototypes: np.ndarray        # C x d_e
    proto_present: np.ndarray


def _train_share(server, clients, dataset, cfg, accs=None):
    """Push the global model to a share of the round's clients, dealt
    longest-first, run their local epochs in lockstep and compute their
    prototypes; with accs (the run's Accuracies), also record their
    accuracies, unless cfg.broadcast_all replaces every client's
    parameters after the round. Returns their ClientRound records, in
    order."""
    for client in clients:
        push_global(server, client)
    measure = accs is not None and not cfg.broadcast_all
    for epoch in range(cfg.local_epochs):
        rngs = [child_rng(cfg.seed, "train", server.round, client.id, epoch)
                for client in clients]
        metrics = local_train_epoch(clients, dataset, server, cfg, rngs)
    records = []
    for client, m in zip(clients, metrics):
        records.append(ClientRound(client.id, m,
                                   *compute_prototypes(client, dataset)))
        if measure:
            accs.measure(client, dataset)
    return records


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


def run_round(server, clients, dataset, cfg, workers=None, accs=None):
    """One communication round: select, push, train, aggregate into
    server and advance its round. Returns the selected clients'
    ClientRound records in id order.

    With workers (the Workers of the running experiment, forked with this
    server), the selected clients are split longest-first between this
    process and the workers. With accs (the run's Accuracies), the
    accuracies of every client whose parameters changed are brought up to
    date: each process evaluates the clients it trains, and a broadcast
    to all clients measures them all.
    """
    selected = select_clients(cfg.seed, server.round, len(clients),
                              cfg.participation)
    n_workers = len(workers.conns) if workers is not None else 0
    shares = split_longest_first(selected, clients, 1 + n_workers)
    if n_workers:
        workers.dispatch(shares[1:])
    records = _train_share(server, [clients[k] for k in shares[0]], dataset,
                           cfg, accs)
    if n_workers:
        records += [r for reply in workers.replies() for r in reply]
    records.sort(key=lambda r: r.client_id)
    updates = [ClientUpdate(
        client_id=r.client_id,
        shared=shared_tensors(clients[r.client_id].params),
        prototypes=r.prototypes, proto_present=r.proto_present,
        n_samples=int(clients[r.client_id].train_idx.size))
        for r in records]
    aggregate(server, updates, cfg.aggregation)
    server.round += 1
    if cfg.broadcast_all:
        for client in clients:
            push_global(server, client)
        if accs is not None:
            accs.measure_pushed(clients, dataset)
    return records


class Workers(Forked):
    """Forked processes that train clients of a round in parallel with
    the calling process.

    Forked once per experiment, after set-up. Just before the fork, and
    only when it forks, every client's model vector, the run's working
    labels, the server's arrays and the accuracy table move into
    anonymous shared maps (processes.shared_copy). A worker trains and
    relabels the client's own memory, reads the server the calling
    process aggregates into and records the client's accuracies, and the
    calling process reads them all in place.
    The pipes carry the round index and the client ids in, and the
    workers' ClientRound records back; a worker evaluates by the rule of
    _train_share, on the run's pooled test split, which it inherits.
    Results are the same bits as training in-process: every client's RNG
    is keyed by (seed, round, client, epoch), one process trains each
    client of a round, and aggregation sorts updates by client id.
    """

    def __init__(self, server, clients, dataset, cfg, accs=None):
        super().__init__()
        n_workers = worker_count(cfg)
        if n_workers <= 0:
            return
        labels = shared_copy(clients[0].working_labels)
        for client in clients:
            client.params = Params(client.params.layout,
                                   shared_copy(client.params.vector))
            client.working_labels = labels
        for name in ("shared", "prototypes", "proto_present"):
            setattr(server, name, shared_copy(getattr(server, name)))
        if accs is not None:
            accs.by_client = shared_copy(accs.by_client)
        self.server, self.clients, self.dataset, self.cfg = \
            server, clients, dataset, cfg
        self.accs = accs
        try:
            for _ in range(n_workers):
                self.fork(self._train)
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise

    def dispatch(self, shares):
        """Hand each worker the server's round and one share of its
        clients."""
        for conn, share in zip(self.conns, shares):
            conn.send((self.server.round, share))

    def _train(self, round_idx, share):
        """In a worker: train a share of the round's clients."""
        self.server.round = round_idx
        return _train_share(self.server, [self.clients[k] for k in share],
                            self.dataset, self.cfg, self.accs)


def worker_count(cfg):
    """One worker per process slot beyond this process, and no more than
    the clients a round selects can keep busy: none for a run of no
    rounds."""
    if cfg.rounds == 0:
        return 0
    return min(process_slots(),
               round_size(cfg.participation, cfg.client_count)) - 1


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
            child_rng(cfg.seed, "data"), cfg.separation)
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
    elif cfg.corruption_rate > 0 and cfg.corruption_severity > 0:
        rng = child_rng(cfg.seed, "corrupt")
        n_hit = data_mod.rate_count(cfg.corruption_rate, ds.n)
        hit = rng.choice(ds.n, size=n_hit, replace=False)
    else:
        return ds
    return data_mod.corrupt_features(ds, hit, cfg.corruption_severity, rng)


def build_clients(cfg, dataset, partition):
    models = init_model(cfg, (child_rng(cfg.seed, "init", k)
                              for k in range(cfg.client_count)))
    stack = ClientStack(models[0].layout)
    # the training sets are disjoint, so one working-label vector serves
    # the run; a fork moves it into a shared map (Workers)
    labels = dataset.observed_labels.copy()
    return [ClientState(id=k, train_idx=partition.train_indices[k],
                        test_idx=partition.test_indices[k], params=params,
                        working_labels=labels, stack=stack)
            for k, params in enumerate(models)]


def init_server(cfg, dataset):
    params, = init_model(cfg, [child_rng(cfg.seed, "init-global")])
    return ServerState(shared=shared_tensors(params),
                       prototypes=np.zeros((dataset.n_classes, cfg.expr_dim)),
                       proto_present=np.zeros(dataset.n_classes, dtype=bool),
                       round=0)


def evaluate(params, dataset, idx):
    """Accuracy of the classifier argmax against the clean labels, on the
    rows idx of dataset: indices, or a slice, which reads the rows in
    place."""
    labels = dataset.clean_labels[idx]
    if labels.size == 0:
        return float("nan")
    # no backward cache: a pooled evaluation's cache is several times the
    # size of its logits, and allocating it only to free it again costs
    # page faults
    logits = forward(params, ("backbone", "ec.expr", "ec.classifier"),
                     dataset.features[idx])
    pred = np.argmax(logits, axis=1) + 1
    return float(np.count_nonzero(pred == labels) / labels.size)


class Accuracies:
    """The accuracies a run reports: row k of by_client is the (test,
    pooled) accuracy of client k's current parameters, NaN until
    measured, written in place by the process that trains the client. The
    pooled test split, every client's test rows in client order, is
    gathered once per run into a Dataset of its own; a round worker
    inherits it."""

    def __init__(self, clients, dataset):
        idx = np.concatenate([c.test_idx for c in clients])
        self.pooled = data_mod.Dataset(
            dataset.features[idx], dataset.observed_labels[idx],
            dataset.clean_labels[idx], dataset.n_classes)
        self.by_client = np.full((len(clients), 2), np.nan)

    def measure(self, client, dataset):
        """Record the (test, pooled) accuracy of a client's current
        parameters."""
        self.by_client[client.id] = (
            evaluate(client.params, dataset, client.test_idx),
            evaluate(client.params, self.pooled, slice(None)))

    def measure_pushed(self, clients, dataset):
        """Record the accuracies of clients that all hold the global model
        just pushed. Evaluation reads only the backbone and EC tensors,
        which the push made the same in every client, so one pooled pass
        serves them all. Each test split still runs on its own: a row
        subset of a product can round differently from the same rows of
        the pooled one."""
        pooled = evaluate(clients[0].params, self.pooled, slice(None))
        for client in clients:
            self.by_client[client.id] = (
                evaluate(client.params, dataset, client.test_idx), pooled)


METRIC_COLUMNS = ["round", "client_id", "split", "accuracy", "loss_wce",
                  "loss_w", "loss_p", "beta_certain_mean",
                  "beta_uncertain_mean", "relabel_count", "relabel_precision"]
# the columns after accuracy of a row with no epoch metrics
NO_EXTRAS = [None] * 7


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return f"{v:.12g}"
    return str(v)


def _eval_rows(round_idx, clients, dataset, records, measured):
    """Metric rows of one round, with the epoch metrics of the clients
    that trained (their ClientRound records); measured is the run's
    accuracy table (Accuracies.by_client), one row per client."""
    trained = {r.client_id: r.metrics for r in records}
    rows = []
    for client in clients:
        extras = NO_EXTRAS
        m = trained.get(client.id)
        if m is not None:
            changes = m.relabel_changes
            hits = sum(1 for i, _, new in changes
                       if new == dataset.clean_labels[i])
            extras = [m.loss_wce, m.loss_w, m.loss_p, m.beta_certain_mean,
                      m.beta_uncertain_mean, len(changes),
                      hits / len(changes) if changes else None]
        acc, pooled = measured[client.id].tolist()
        rows.append([round_idx, client.id, "test", acc] + extras)
        rows.append([round_idx, client.id, "pooled", pooled] + extras)
    for split, column in zip(("test", "pooled"), measured.T):
        rows.append([round_idx, -1, split, float(np.nanmean(column))]
                    + NO_EXTRAS)
    return rows


def run_experiment(cfg, out_dir=None):
    """Full run: data, partition, clients, T rounds, per-round evaluation.

    Returns (rows, clients, server); writes metrics.csv and
    resolved_config.json when out_dir is given.
    """
    dataset = build_dataset(cfg)
    try:
        partition = data_mod.dirichlet_partition(
            dataset.clean_labels, cfg.client_count, cfg.dirichlet_alpha,
            child_rng(cfg.seed, "partition"), cfg.test_fraction)
    except data_mod.PartitionError as exc:
        raise ConfigError(f"client_count={cfg.client_count}, dirichlet_alpha="
                          f"{cfg.dirichlet_alpha}: {exc}") from exc
    if not any(idx.size for idx in partition.test_indices):
        raise ConfigError(f"client_count={cfg.client_count}: no client holds "
                          f"two samples of one class, so none has a test "
                          f"sample")
    clients = build_clients(cfg, dataset, partition)
    server = init_server(cfg, dataset)
    for client in clients:
        push_global(server, client)

    accs = Accuracies(clients, dataset)
    accs.measure_pushed(clients, dataset)
    rows = [_eval_rows(0, clients, dataset, [], accs.by_client)]
    with Workers(server, clients, dataset, cfg, accs) as workers:
        for _ in range(cfg.rounds):
            records = run_round(server, clients, dataset, cfg, workers, accs)
            rows.append(_eval_rows(server.round, clients, dataset, records,
                                   accs.by_client))
    flat = [r for chunk in rows for r in chunk]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_resolved_config(cfg,
                             os.path.join(out_dir, "resolved_config.json"))
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
