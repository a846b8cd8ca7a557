"""Gradient proxies: the feature space the selectors cluster in.

The full per-sample gradient is far too large to compare pairwise.  CRAIG's
key observation (inherited by NeSSA) is that for a softmax + cross-entropy
head, the gradient w.r.t. the *last layer's* input upper-bounds the
variation of the full gradient, and that gradient is ``softmax(z) -
onehot(y)`` — computable from a forward pass alone.  NeSSA runs exactly
this forward pass on the FPGA with the quantized feedback model.

The proxy needs only the classifier head's input.  :class:`EmbeddingTable`
keeps each sample's penultimate embedding, so a round scores the pool with
the head alone and runs the backbone forward only on the rounds
:func:`refresh_due` names (and for samples it has no row for) — the
schedule :meth:`repro.pipeline.system.SystemModel.nessa_epoch` prices.

``mode``:

- ``"logits"`` (default, what CRAIG uses) — the (num_classes,)-dim
  last-layer gradient.
- ``"logits_x_feature_norm"`` — the same vector scaled by the penultimate
  embedding norm, which tracks ``||outer(g, h)||`` (the true last-layer
  weight-gradient norm) without materializing the outer product.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.nn.loss import CrossEntropyLoss

__all__ = [
    "REFRESH_PERIOD",
    "refresh_due",
    "refresh_count",
    "EmbeddingTable",
    "GradientProxy",
    "compute_gradient_proxies",
]

# Selection rounds per backbone refresh of an EmbeddingTable once the
# first REFRESH_PERIOD rounds (which all refresh) are past: rounds
# REFRESH_PERIOD, 2 * REFRESH_PERIOD, ... run the full forward and the
# rounds in between run the classifier head only.
REFRESH_PERIOD = 5


def refresh_due(round_index: int) -> bool:
    """Does selection round ``round_index`` refresh the embeddings?

    Every round of the first period, then every :data:`REFRESH_PERIOD`-th.
    The first rounds move the backbone fastest: scoring them with the
    untrained network's round-0 embeddings collapsed two of eight 32-epoch
    imagenet100 runs to about 6% test accuracy (periods 5 and 10 without
    the warm-up), and a warm-up of rounds 3, 5 and 7 only cost tinyimagenet
    about 2.5 points.
    """
    return round_index < REFRESH_PERIOD or round_index % REFRESH_PERIOD == 0


def refresh_count(rounds: int) -> int:
    """How many of the first ``rounds`` selection rounds refresh — what
    :meth:`repro.pipeline.system.SystemModel.nessa_epoch` prices."""
    return sum(refresh_due(r) for r in range(rounds))


@dataclass
class GradientProxy:
    """Per-sample selection features for one candidate pool.

    Attributes
    ----------
    vectors : ``(N, D)`` proxy vectors (the space medoids are found in).
    losses : ``(N,)`` per-sample cross-entropy (subset-biasing input).
    ids : ``(N,)`` global sample ids aligned with rows.
    flops : FLOP estimate of the computation, used by the FPGA timing
        model: the backbone forward for every row forwarded this round
        plus the head GEMM for every row.
    """

    vectors: np.ndarray
    losses: np.ndarray
    ids: np.ndarray
    flops: float = 0.0

    def __post_init__(self):
        # Note: a chained `a != b != c` comparison would skip comparing
        # vectors against ids, letting misaligned ids slip through.
        n = self.vectors.shape[0]
        if self.losses.shape[0] != n or self.ids.shape[0] != n:
            raise ValueError("vectors, losses and ids must align")


class EmbeddingTable:
    """Per-sample penultimate embeddings, keyed by sample id.

    A refresh round (:func:`refresh_due`) replaces the table with the
    pool's freshly forwarded embeddings; the rounds in between read their
    rows back and apply the current classifier head, forwarding only the
    samples the table has no row for.  The rows belong to the network
    whose backbone produced them: a round for any other network (another
    replica, or one of another width) refreshes, so a head is never
    applied to a different backbone's embeddings.  ``hits`` counts
    head-only rounds, ``misses`` refresh rounds — each lands in the
    ``proxy_cache.*`` counters as well.

    One selection round at a time: the overlapped trainer joins its
    in-flight round before starting the next, so no lock is needed.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._refreshed_at = 0
        self._source = None  # weak reference to the rows' network
        self._ids = np.zeros(0, dtype=np.int64)  # sorted
        self._rows: np.ndarray | None = None

    def begin_round(self, network) -> tuple[bool, int]:
        """Count one round scored by ``network``: ``(refresh?, age of its
        embeddings in rounds)``."""
        r = self.hits + self.misses
        stored = self._source() if self._source is not None else None
        refresh = refresh_due(r) or stored is not network
        if refresh:
            # lint: allow-shared-state(one round in flight: AsyncSelectionRound.launch refuses a second round and its join precedes the trainer's next select call)
            self._source = weakref.ref(network)
            # lint: allow-shared-state(one round in flight: AsyncSelectionRound.launch refuses a second round and its join precedes the trainer's next select call)
            self.misses += 1
            # lint: allow-shared-state(one round in flight: AsyncSelectionRound.launch refuses a second round and its join precedes the trainer's next select call)
            self._refreshed_at = r
            obs.metrics().counter("proxy_cache.misses").inc()
        else:
            # lint: allow-shared-state(one round in flight: AsyncSelectionRound.launch refuses a second round and its join precedes the trainer's next select call)
            self.hits += 1
            obs.metrics().counter("proxy_cache.hits").inc()
        return refresh, r - self._refreshed_at

    def rows(self, ids: np.ndarray, forward, refresh: bool) -> tuple[np.ndarray, int]:
        """The embeddings of ``ids`` and how many rows ``forward`` computed.

        ``forward(index)`` returns the backbone embeddings of the pool rows
        ``index`` selects.  A refresh forwards the whole pool and replaces
        the table; otherwise only ids without a stored row are forwarded.
        """
        if refresh:
            rows = forward(slice(None))
            self._keep(ids, rows)
            return rows, len(ids)
        pos = np.minimum(np.searchsorted(self._ids, ids), len(self._ids) - 1)
        rows, todo = self._rows[pos], np.flatnonzero(self._ids[pos] != ids)
        if len(todo):
            rows[todo] = forward(todo)
            self._keep(np.concatenate([self._ids, ids[todo]]),
                       np.concatenate([self._rows, rows[todo]]))
        return rows, len(todo)

    def _keep(self, ids: np.ndarray, rows: np.ndarray) -> None:
        order = np.argsort(ids, kind="stable")
        # lint: allow-shared-state(one round in flight: AsyncSelectionRound.launch refuses a second round and its join precedes the trainer's next select call)
        self._ids, self._rows = ids[order], rows[order]

    @property
    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": lookups,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "rows": len(self._ids),
        }


def compute_gradient_proxies(
    model,
    x: np.ndarray,
    y: np.ndarray,
    ids: np.ndarray | None = None,
    batch_size: int = 256,
    mode: str = "logits",
    cache: EmbeddingTable | None = None,
) -> GradientProxy:
    """Run the selection model and derive per-sample proxies.

    ``model`` is any callable with torch-like ``__call__`` (logits) — in
    practice either the live target model or its
    :class:`~repro.nn.quantize.QuantizedModel` snapshot.  A model whose
    network exposes ``features`` and an ``fc`` head runs as backbone then
    head, the same operations as ``model(x)``; the feature-norm mode
    requires one.  Runs in eval mode semantics (no caching, no BN updates).

    ``cache`` is an optional :class:`EmbeddingTable`.  A refresh round is
    the full forward, bit-identical to the uncached call, and stores its
    embeddings; any other round applies ``fc`` to the stored embeddings
    of ``ids`` and forwards only the rows the table lacks.  Models without
    ``features`` and an ``fc`` head bypass the table.
    """
    if mode not in ("logits", "logits_x_feature_norm"):
        raise ValueError(f"unknown proxy mode: {mode!r}")
    n = x.shape[0]
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    ids = np.asarray(ids)
    inner = getattr(model, "model", model)
    head = getattr(inner, "fc", None)
    staged = head is not None and hasattr(inner, "features")

    with obs.span("proxy_compute", candidates=int(n), mode=mode) as sp:
        was_training = getattr(inner, "training", False)
        if hasattr(inner, "eval"):
            inner.eval()
        try:
            if staged:
                def forward(index):
                    return _forward_features(model, x[index], batch_size)

                if cache is None:
                    feats, forwarded = forward(slice(None)), n
                else:
                    refresh, age = cache.begin_round(inner)
                    sp.set(refreshed=refresh, embedding_age=age)
                    feats, forwarded = cache.rows(ids, forward, refresh)
                scaled = mode == "logits_x_feature_norm"
                chunks = (
                    (head(f), np.linalg.norm(f, axis=1, keepdims=True) if scaled else None)
                    for f in _batches(feats, batch_size)
                )
            elif mode == "logits_x_feature_norm":
                raise AttributeError("feature-norm proxy mode needs a model with a .fc head")
            else:
                forwarded = n
                chunks = ((model(xb), None) for xb in _batches(x, batch_size))
            vectors, losses = _proxies(chunks, y, batch_size)
        finally:
            if was_training and hasattr(inner, "train"):
                inner.train()
        flops = _forward_flops(inner, x.shape) * forwarded
        if staged:
            # The head GEMM runs for every row, the backbone only for
            # the rows forwarded this round.
            head_flops = 2.0 * feats.shape[1] * vectors.shape[1]
            flops += head_flops * (n - forwarded)
        sp.set(flops=float(flops))
    return GradientProxy(vectors=vectors, losses=losses, ids=ids, flops=flops)


def _batches(a: np.ndarray, batch_size: int):
    return (a[start : start + batch_size] for start in range(0, a.shape[0], batch_size))


def _forward_features(model, x, batch_size) -> np.ndarray:
    return np.concatenate([model.features(xb) for xb in _batches(x, batch_size)])


def _proxies(chunks, y, batch_size) -> tuple[np.ndarray, np.ndarray]:
    """Proxies and losses from per-batch ``(logits, scale)`` pairs."""
    vec_chunks, loss_chunks = [], []
    for yb, (logits, scale) in zip(_batches(y, batch_size), chunks):
        grads = CrossEntropyLoss.last_layer_gradients(logits, yb)
        if scale is not None:
            grads = grads * scale
        vec_chunks.append(grads)
        loss_chunks.append(CrossEntropyLoss.per_sample_losses(logits, yb))
    vectors = np.concatenate(vec_chunks).astype(np.float64)
    return vectors, np.concatenate(loss_chunks).astype(np.float64)


def _forward_flops(model, x_shape: tuple) -> float:
    """Per-sample forward FLOPs; delegated to repro.perf when available."""
    try:
        from repro.perf.flops import model_forward_flops

        return model_forward_flops(model, x_shape[1:])
    except (ImportError, TypeError, ValueError, AttributeError):
        # The perf model raises TypeError for module types it cannot walk
        # and ValueError for non-(C,H,W) shapes — i.e. exotic models, for
        # which we charge the generic 2 FLOPs/param instead.  Anything
        # else (a bug in the walker) must surface, not be absorbed here.
        num_params = getattr(model, "num_parameters", lambda: 0)()
        return 2.0 * num_params
