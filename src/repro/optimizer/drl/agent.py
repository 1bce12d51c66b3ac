"""DRL crossover agent (Section 4.2.1), generalized to N locations.

The agent Λ_θ takes the location vectors of two parent plans and outputs a
per-component placement distribution; sampling from it produces the offspring plan
(the stochasticity plays the role of GA mutation).  The quality indicators are
non-differentiable, so the agent is trained with a reward-driven actor–critic scheme:
the reward (Eq. 5) is positive only for feasible children and grows with the number of
quality aspects in which the child beats *both* parents; the critic provides a
per-state baseline so the policy gradient has low variance.

**Action space.**  In the paper's two-location setup the actor is a sigmoid head over
``n_components`` outputs — the per-component probability of placing the component in
the cloud.  With N > 2 locations (``locations=(0, 1, 2, ...)``) the actor instead
emits ``n_components x n_locations`` logits, a per-component softmax turns them into a
categorical placement distribution, and parents are one-hot encoded by location.  The
two-location path is kept byte-for-byte identical to the original binary agent
(same architecture, same RNG consumption), so fixed-seed searches reproduce exactly.

**Minibatch reward.**  The reward function is batched: ``train`` draws all
``batch_size`` children of an iteration first, scores them with one
:data:`RewardFunction` call (so the Atlas GA sends the whole minibatch to the
evaluator as one matrix), then runs the per-sample critic, advantage and backward
passes in sample order.  This is exact — the weights only change after the minibatch
and the reward never touches the agent's RNG — so trained weights and the training
history are bit-for-bit those of scoring each child as soon as it is drawn.

Implementation note — reward for infeasible children: Eq. 5 multiplies the aspect count
by ``(-1)^(1-λ)``, which yields exactly 0 for an infeasible child that beats its parents
in no aspect.  We floor the infeasible reward at -1 so that infeasibility always carries
a negative signal; this matches the paper's description ("negates the reward if the plan
does not satisfy all constraints") and its Figure 21b, where early rewards are
consistently below zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nsga2 import allowed_repair_targets, apply_allowed_repair
from .mlp import MLP, AdamOptimizer

__all__ = ["CrossoverAgent", "RewardFunction", "TrainingHistory"]

#: reward_fn(children, parents_a, parents_b) -> one reward per row.  The three
#: sequences are aligned: row ``i`` is child ``i`` and the two parents it was bred from.
RewardFunction = Callable[
    [Sequence[Sequence[int]], Sequence[Sequence[int]], Sequence[Sequence[int]]],
    Sequence[float],
]

_PROB_CLIP = 1e-6


@dataclass
class TrainingHistory:
    """Per-iteration statistics of agent training (drives Figure 21b)."""

    mean_rewards: List[float] = field(default_factory=list)
    feasible_fractions: List[float] = field(default_factory=list)

    def smoothed_rewards(self, window: int = 20) -> List[float]:
        """Moving average of the reward curve (what the paper plots)."""
        if window <= 1 or not self.mean_rewards:
            return list(self.mean_rewards)
        out: List[float] = []
        for i in range(len(self.mean_rewards)):
            lo = max(0, i - window + 1)
            out.append(float(np.mean(self.mean_rewards[lo : i + 1])))
        return out


@dataclass
class _Sample:
    """One drawn minibatch sample, held until its reward is known."""

    parent_a: Sequence[int]
    parent_b: Sequence[int]
    state: np.ndarray
    actor_cache: List[np.ndarray]
    probs: np.ndarray
    child: np.ndarray


class CrossoverAgent:
    """Actor–critic agent producing offspring plans from parent pairs."""

    def __init__(
        self,
        n_components: int,
        hidden_dims: Sequence[int] = (128, 128, 128),
        learning_rate: float = 1e-3,
        critic_learning_rate: float = 2e-3,
        pinned: Optional[Mapping[int, int]] = None,
        seed: int = 0,
        locations: Sequence[int] = (0, 1),
        allowed: Optional[Mapping[int, Sequence[int]]] = None,
    ) -> None:
        """``allowed`` maps component indices to their location whitelist: offspring
        genes sampled at a disallowed site are deterministically repaired to the
        component's first permitted remote location (or on-prem when none is), after
        pins are applied — RNG consumption is untouched, so agents without
        whitelists behave byte-for-byte as before."""
        if n_components <= 0:
            raise ValueError("n_components must be positive")
        self.n_components = n_components
        self.pinned = dict(pinned or {})
        self.allowed: Dict[int, Tuple[int, ...]] = {
            int(index): tuple(int(loc) for loc in permitted)
            for index, permitted in (allowed or {}).items()
        }
        self.locations: Tuple[int, ...] = tuple(int(loc) for loc in locations)
        if len(self.locations) < 2:
            raise ValueError("the agent needs at least two locations to choose from")
        if len(set(self.locations)) != len(self.locations):
            raise ValueError("locations must be unique")
        self.n_locations = len(self.locations)
        #: The paper's binary agent: sigmoid head, raw 0/1 parent encoding.  Any other
        #: location set switches to the categorical (softmax) action space.
        self._binary = self.locations == (0, 1)
        self._loc_index: Dict[int, int] = {loc: i for i, loc in enumerate(self.locations)}
        if not self._binary:
            # The categorical agent one-hot encodes parent vectors, so every pinned
            # location must be a member of the action space (the binary agent encodes
            # raw ids and historically tolerated out-of-set pins).
            invalid = sorted(
                {int(loc) for loc in self.pinned.values()} - set(self.locations)
            )
            if invalid:
                raise ValueError(
                    f"pinned locations {invalid} are outside the agent's location set "
                    f"{self.locations}"
                )
        # Deterministic whitelist repair map shared with the Atlas GA.
        self._allowed_repair = allowed_repair_targets(self.allowed, self.locations)
        if self._binary:
            self.actor = MLP(
                2 * n_components, hidden_dims, n_components, head="sigmoid", seed=seed
            )
            self.critic = MLP(2 * n_components, hidden_dims[:2], 1, head="linear", seed=seed + 1)
        else:
            state_dim = 2 * n_components * self.n_locations
            self.actor = MLP(
                state_dim, hidden_dims, n_components * self.n_locations,
                head="linear", seed=seed,
            )
            self.critic = MLP(state_dim, hidden_dims[:2], 1, head="linear", seed=seed + 1)
        self._actor_opt = AdamOptimizer(learning_rate=learning_rate)
        self._critic_opt = AdamOptimizer(learning_rate=critic_learning_rate)
        self._rng = np.random.default_rng(seed)
        self.history = TrainingHistory()

    # -- inference -------------------------------------------------------------------------
    def state(self, parent_a: Sequence[int], parent_b: Sequence[int]) -> np.ndarray:
        if len(parent_a) != self.n_components or len(parent_b) != self.n_components:
            raise ValueError("parent vectors must match the component count")
        if self._binary:
            return np.concatenate(
                [np.asarray(parent_a, dtype=float), np.asarray(parent_b, dtype=float)]
            )
        return np.concatenate([self._one_hot(parent_a), self._one_hot(parent_b)])

    def _one_hot(self, vector: Sequence[int]) -> np.ndarray:
        encoded = np.zeros(self.n_components * self.n_locations, dtype=float)
        for component, location in enumerate(vector):
            encoded[component * self.n_locations + self._loc_index[int(location)]] = 1.0
        return encoded

    def child_probabilities(
        self, parent_a: Sequence[int], parent_b: Sequence[int]
    ) -> np.ndarray:
        """Placement distribution for each component.

        Binary agent: shape ``(n_components,)`` — probability of the cloud (location 1).
        N-location agent: shape ``(n_components, n_locations)`` — a categorical
        distribution over ``self.locations`` per component.
        """
        return self._policy(self.actor(self.state(parent_a, parent_b))[0])

    def _policy(self, out: np.ndarray) -> np.ndarray:
        """The placement distribution of one actor output row."""
        if self._binary:
            return np.clip(out, _PROB_CLIP, 1.0 - _PROB_CLIP)
        return self._softmax(out.reshape(self.n_components, self.n_locations))

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return np.clip(probs, _PROB_CLIP, None)

    def _sample_categorical(
        self, probs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One location *index* per component from per-component distributions."""
        cumulative = np.cumsum(probs, axis=1)
        cumulative[:, -1] = np.maximum(cumulative[:, -1], 1.0)
        draws = rng.random(self.n_components)
        return (draws[:, None] > cumulative).sum(axis=1)

    def crossover(
        self,
        parent_a: Sequence[int],
        parent_b: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        """Sample an offspring plan; pinned components are masked to their location."""
        probs = self.child_probabilities(parent_a, parent_b)
        return [int(v) for v in self._draw_child(probs, rng or self._rng)]

    def _draw_child(self, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample a location vector from ``probs``, then pin and repair it (no RNG)."""
        if self._binary:
            child = (rng.random(self.n_components) < probs).astype(int)
        else:
            indices = self._sample_categorical(probs, rng)
            child = np.asarray([self.locations[int(i)] for i in indices], dtype=int)
        self._apply_constraints(child)
        return child

    def _apply_constraints(self, child: np.ndarray) -> None:
        """Pin forced genes, then repair any whitelist-violating draw (no RNG)."""
        for index, location in self.pinned.items():
            child[index] = location
        apply_allowed_repair(child, self._allowed_repair)

    # -- training --------------------------------------------------------------------------
    def train(
        self,
        parent_pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
        reward_fn: RewardFunction,
        iterations: int = 1_000,
        batch_size: int = 4,
    ) -> TrainingHistory:
        """Train the agent on a dataset ``D`` of parent pairs with the given reward.

        Each iteration samples the whole minibatch, scores it with one ``reward_fn``
        call, then accumulates the per-sample actor/critic gradients in sample order
        and applies them once.  Weights only change after the minibatch and the reward
        draws nothing from the agent's RNG, so this is the same computation as scoring
        every sample right after drawing it.
        """
        if not parent_pairs:
            raise ValueError("training requires at least one parent pair")
        if iterations <= 0 or batch_size <= 0:
            raise ValueError("iterations and batch_size must be positive")
        for _ in range(iterations):
            samples = [self._sample_child(parent_pairs) for _ in range(batch_size)]
            rewards = [
                float(r)
                for r in reward_fn(
                    [[int(v) for v in sample.child] for sample in samples],
                    [sample.parent_a for sample in samples],
                    [sample.parent_b for sample in samples],
                )
            ]
            if len(rewards) != batch_size:
                raise ValueError(
                    f"reward_fn returned {len(rewards)} rewards for {batch_size} children"
                )
            actor_grads = None
            critic_grads = None
            for sample, reward in zip(samples, rewards):
                grads_a, grads_c = self._sample_gradients(sample, reward, batch_size)
                actor_grads = self._accumulate(actor_grads, grads_a)
                critic_grads = self._accumulate(critic_grads, grads_c)

            self.actor.apply_gradients(actor_grads, self._actor_opt)
            self.critic.apply_gradients(critic_grads, self._critic_opt)
            self.history.mean_rewards.append(float(np.mean(rewards)))
            self.history.feasible_fractions.append(
                sum(1 for reward in rewards if reward > 0) / batch_size
            )
        return self.history

    def _sample_child(
        self, parent_pairs: Sequence[Tuple[Sequence[int], Sequence[int]]]
    ) -> _Sample:
        """Draw one training sample: a parent pair, the actor's forward pass and a child."""
        idx = int(self._rng.integers(0, len(parent_pairs)))
        parent_a, parent_b = parent_pairs[idx]
        state = self.state(parent_a, parent_b)
        out, actor_cache = self.actor.forward(state, keep_cache=True)
        probs = self._policy(out[0])
        child = self._draw_child(probs, self._rng)
        return _Sample(parent_a, parent_b, state, actor_cache, probs, child)

    def _sample_gradients(
        self, sample: _Sample, reward: float, batch_size: int
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], List[Tuple[np.ndarray, np.ndarray]]]:
        """Actor and critic gradients of one scored sample (critic as the baseline)."""
        probs, child = sample.probs, sample.child
        value, critic_cache = self.critic.forward(sample.state, keep_cache=True)
        advantage = reward - float(value[0, 0])

        # Policy gradient: minimize -advantage * log π(child | state).
        if self._binary:
            dlogpi_dp = child / probs - (1 - child) / (1 - probs)
            actor_grad_out = (-advantage * dlogpi_dp / batch_size)[None, :]
        else:
            # Softmax policy: d log π / d logits = onehot(child) - probs.
            chosen = np.zeros_like(probs)
            chosen[
                np.arange(self.n_components),
                [self._loc_index[int(v)] for v in child],
            ] = 1.0
            dlogpi_dlogits = (chosen - probs).reshape(1, -1)
            actor_grad_out = -advantage * dlogpi_dlogits / batch_size
        grads_a = self.actor.backward(sample.actor_cache, actor_grad_out)
        # Critic: minimize (value - reward)^2.
        critic_grad_out = np.array([[2.0 * (float(value[0, 0]) - reward) / batch_size]])
        grads_c = self.critic.backward(critic_cache, critic_grad_out)
        return grads_a, grads_c

    @staticmethod
    def _accumulate(
        total: Optional[List[Tuple[np.ndarray, np.ndarray]]],
        grads: List[Tuple[np.ndarray, np.ndarray]],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        if total is None:
            return [(gw.copy(), gb.copy()) for gw, gb in grads]
        return [(tw + gw, tb + gb) for (tw, tb), (gw, gb) in zip(total, grads)]

