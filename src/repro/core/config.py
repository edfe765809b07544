"""PromptEM configuration with the paper's Section 5.1 defaults.

The learning rate and epoch counts are rescaled to MiniLM's size (the paper
tunes RoBERTa-base with lr=2e-5 for 20/30 epochs; a 100k-parameter model
wants a larger step and converges in fewer epochs), but every *structural*
default matches: 1 self-training iteration, 10 MC-Dropout passes, pruning
every ``prune_frequency`` epochs, u_r and e_r grid values, template and
label-word choices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass
class PromptEMConfig:
    """All knobs of the PromptEM matcher."""

    # Prompt design (Section 3)
    template: str = "t2"
    continuous: bool = True
    tokens_per_slot: int = 2
    label_words: str = "designed"       # "designed" | "simple"
    #: input budget; keep within the backbone's *pre-trained* position range
    #: (minilm-base pre-trains positions 0..95) -- longer inputs would read
    #: untrained position embeddings and destroy accuracy
    max_len: int = 96

    # Optimization (Section 5.1)
    lr: float = 5e-4
    weight_decay: float = 0.01
    batch_size: int = 8
    teacher_epochs: int = 12
    student_epochs: int = 16
    grad_clip: float = 1.0

    # Lightweight self-training (Section 4)
    use_self_training: bool = True
    self_training_iterations: int = 1
    pseudo_label_ratio: float = 0.10     # u_r
    selection_strategy: str = "uncertainty"
    mc_passes: int = 10

    # Dynamic data pruning (Section 4.3)
    use_dynamic_pruning: bool = True
    prune_ratio: float = 0.2             # e_r
    prune_frequency: int = 8             # epochs between prunes

    # Ablation: prompt-tuning off -> vanilla fine-tuning (w/o PT)
    use_prompt_tuning: bool = True

    # Long-text handling (Appendix F)
    summarize_long_text: bool = True
    summary_tokens: int = 48

    # Infrastructure
    model_name: str = "minilm-base"
    seed: int = 0
    unlabeled_cap: Optional[int] = None  # subsample the pool for speed
    #: inference engine: batched-token budget (rows x longest per batch) and
    #: encoding-cache size; engine off -> seed-style fixed-count batches
    use_engine: bool = True
    token_budget: int = 2048
    engine_cache: int = 8192

    def __post_init__(self) -> None:
        if self.template not in ("t1", "t2"):
            raise ValueError("template must be 't1' or 't2'")
        if self.label_words not in ("designed", "simple"):
            raise ValueError("label_words must be 'designed' or 'simple'")
        if not 0.0 < self.pseudo_label_ratio <= 1.0:
            raise ValueError("pseudo_label_ratio (u_r) must be in (0, 1]")
        if not 0.0 <= self.prune_ratio < 1.0:
            raise ValueError("prune_ratio (e_r) must be in [0, 1)")
        if self.self_training_iterations < 0:
            raise ValueError("self_training_iterations must be >= 0")
        if self.mc_passes < 2:
            raise ValueError("mc_passes must be >= 2")
        if self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")

    def variant(self, **changes) -> "PromptEMConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)

    def without_prompt_tuning(self) -> "PromptEMConfig":
        """PromptEM w/o PT (Table 2 ablation)."""
        return self.variant(use_prompt_tuning=False)

    def without_self_training(self) -> "PromptEMConfig":
        """PromptEM w/o LST (Table 2 ablation)."""
        return self.variant(use_self_training=False)

    def without_pruning(self) -> "PromptEMConfig":
        """PromptEM w/o DDP, aka PromptEM- (Tables 2 and 4)."""
        return self.variant(use_dynamic_pruning=False)
