"""Voting-scheme modeling (Section II-C).

The decision making of a group with ``l`` members is simulated as ``l``
simultaneous sub-voting processes: one stacked social self-attention
network whose i-th output row is the representation of the i-th
*sub-group* (the group as seen through member i's votes).  A vanilla
attention network conditioned on the target item then aggregates the
sub-group representations into the group representation (Eqs. 7-10).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn import (
    MASK_VALUE,
    Dropout,
    LayerNorm,
    Linear,
    ModuleList,
    Module,
    PairwiseAttention,
    Parameter,
    ScaledDotProductSelfAttention,
    social_bias_matrix,
)
from repro.core.config import GroupSAConfig
from repro.utils import RngLike, ensure_rng


class VotingLayer(Module):
    """One voting round: social self-attention + FFN sub-layers.

    Both sub-layers are wrapped with residual connections and layer
    normalization, following the transformer recipe the paper adopts:
    ``LayerNorm(x + Sublayer(x))``.
    """

    def __init__(self, config: GroupSAConfig, rng: RngLike = None) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        dim = config.embedding_dim
        self.attention = ScaledDotProductSelfAttention(
            model_features=dim,
            key_features=config.key_dim,
            value_features=config.value_dim,
            num_heads=config.num_heads,
            rng=generator,
        )
        self.ffn_expand = Linear(dim, config.ffn_hidden, rng=generator)
        self.ffn_contract = Linear(config.ffn_hidden, dim, rng=generator)
        self.attention_norm = LayerNorm(dim)
        self.ffn_norm = LayerNorm(dim)
        self.dropout = Dropout(config.dropout, rng=generator)

    def forward(self, x: Tensor, bias: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Return (next member representations, attention weights)."""
        attended, weights = self.attention(x, bias=bias)
        x = self.attention_norm(x + self.dropout(attended))
        transformed = self.ffn_contract(self.ffn_expand.forward_relu(x))
        x = self.ffn_norm(x + self.dropout(transformed))
        return x, weights


class VotingNetwork(Module):
    """Stacked voting rounds (N_X identical layers).

    With ``use_self_attention=False`` (the Group-S/Group-A variants) the
    member embeddings pass through unchanged and only the vanilla
    attention aggregation below applies.
    """

    def __init__(self, config: GroupSAConfig, rng: RngLike = None) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        self.enabled = config.use_self_attention and config.num_attention_layers > 0
        layer_count = config.num_attention_layers if self.enabled else 0
        self.layers = ModuleList(
            VotingLayer(config, rng=generator) for __ in range(layer_count)
        )
        # Zero-initialized residual gate (ReZero-style): the voting
        # stack starts as the identity over the shared member
        # embeddings, so the stage-2 fine-tuning begins from the
        # geometry learned in stage 1 and learns the voting correction
        # on top.  Without this, the LayerNorm sub-layers re-scale the
        # member representations and the sparse group-item data cannot
        # recover the taste signal.  Built through init.zeros so the
        # gate follows the model's dtype policy.
        self.gate = Parameter(init.zeros((1,)))

    def forward(
        self,
        member_embeddings: Tensor,
        adjacency: np.ndarray,
        member_mask: np.ndarray,
    ) -> Tuple[Tensor, Optional[np.ndarray]]:
        """Run the voting rounds.

        Parameters
        ----------
        member_embeddings: (B, L, d) member representations.
        adjacency: (B, L, L) boolean social connectivity within groups.
        member_mask: (B, L) boolean validity mask (padding = False).

        Returns the final member representations and the last layer's
        attention weights (None when self-attention is disabled).
        """
        if not self.enabled:
            return member_embeddings, None
        bias = social_bias_matrix(adjacency, member_mask=member_mask)
        x = member_embeddings
        weights: Optional[np.ndarray] = None
        for layer in self.layers:
            x, attention = layer(x, bias)
            weights = attention.data
        return member_embeddings + x * self.gate, weights


class GroupAggregation(Module):
    """Vanilla-attention preference aggregation (Eqs. 7-10).

    The expertise of each member varies with the topic, so the member
    weight gamma is produced by a two-layer network over the
    concatenation of the *target item embedding* and the member's
    sub-group representation, then softmax-normalized over members.
    """

    def __init__(self, config: GroupSAConfig, rng: RngLike = None) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        dim = config.embedding_dim
        self.member_attention = PairwiseAttention(
            query_features=dim,
            candidate_features=dim,
            hidden_features=config.attention_hidden,
            rng=generator,
        )
        self.output = Linear(dim, dim, rng=generator)
        # Same ReZero trick as the voting stack: the Eq. (7) output
        # transform starts as the identity over the aggregated member
        # representation.
        self.gate = Parameter(init.zeros((1,)))

    def forward(
        self,
        member_representations: Tensor,
        item_embeddings: Tensor,
        member_mask: np.ndarray,
    ) -> Tuple[Tensor, Tensor]:
        """Return (group representation (B, d), member weights (B, L))."""
        aggregated, weights = self.member_attention(
            query=item_embeddings,
            candidates=member_representations,
            mask=member_mask,
        )
        transformed = self.output.forward_relu(aggregated)
        return aggregated + transformed * self.gate, weights

    def aggregate_items(
        self, voted: np.ndarray, items: np.ndarray, member_mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Inference twin of :meth:`forward` for one group against n items.

        ``voted`` (L, d) and ``member_mask`` (L,) are the group's one
        row, ``items`` is (n, d).  Eq. (9) splits at the concatenation,
        ``W1 [emb^V ⊕ member] = W_q emb^V + W_c member``: the members'
        term is one (L, h) block, the items' one (n, d) product.
        Returns (group representations (n, d), gamma (n, L)).
        """
        attention = self.member_attention
        dim = items.shape[1]
        weight = attention.score_hidden.weight.data
        hidden = (items @ weight[:dim])[:, None, :] + (
            voted @ weight[dim:] + attention.score_hidden.bias.data
        )
        np.maximum(hidden, 0.0, out=hidden)
        logits = hidden @ attention.score_out.weight.data[:, 0]
        logits += attention.score_out.bias.data
        logits += np.where(member_mask, 0.0, MASK_VALUE).astype(logits.dtype)
        logits -= logits.max(axis=1, keepdims=True)
        gamma = np.exp(logits, out=logits)
        gamma /= gamma.sum(axis=1, keepdims=True)
        if member_mask.any():
            aggregated = gamma @ voted
        else:  # no valid member: the zero vector, not padding garbage
            aggregated = np.zeros_like(items)
        transformed = aggregated @ self.output.weight.data
        transformed += self.output.bias.data
        np.maximum(transformed, 0.0, out=transformed)
        transformed *= self.gate.data
        return aggregated + transformed, gamma
