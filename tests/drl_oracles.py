"""Reference oracle for DRL training: the per-sample ``CrossoverAgent.train`` loop.

This is the loop ``CrossoverAgent.train`` ran before it scored each minibatch with
one batched reward call, kept verbatim (only renamed, with the agent passed as
``self``).  It calls a *scalar* reward right after drawing each child; wrap a
batched :data:`~repro.optimizer.drl.agent.RewardFunction` with
:func:`one_row_at_a_time` to drive it, or patch :func:`per_sample_train` in for
``CrossoverAgent.train``.  The suites in ``test_optimizer.py`` and
``test_multi_location.py`` hold the batched ``train`` to it: bitwise-equal actor and
critic weights, Adam moments, RNG state and history, and the same rows scored in the
same order.  It is deliberately slow and obvious; do not optimise it.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.optimizer.drl.agent import _PROB_CLIP, RewardFunction, TrainingHistory

__all__ = ["oracle_train", "one_row_at_a_time", "per_sample_train", "agent_snapshot"]

#: reward(child_vector, parent_a_vector, parent_b_vector) -> float
ScalarReward = Callable[[Sequence[int], Sequence[int], Sequence[int]], float]


def one_row_at_a_time(reward_fn: RewardFunction) -> ScalarReward:
    """A scalar reward that scores one child per call of the batched ``reward_fn``."""

    def scalar(child, parent_a, parent_b) -> float:
        (reward,) = reward_fn([child], [parent_a], [parent_b])
        return reward

    return scalar


def per_sample_train(agent, parent_pairs, reward_fn, iterations, batch_size):
    """Drop-in for ``CrossoverAgent.train``: the oracle, one batched-reward row per call."""
    return oracle_train(
        agent, parent_pairs, one_row_at_a_time(reward_fn), iterations, batch_size
    )


def agent_snapshot(agent) -> Tuple:
    """Every piece of trained state, as bytes: weights, Adam moments, RNG, history."""
    arrays = []
    for network, optimizer in ((agent.actor, agent._actor_opt), (agent.critic, agent._critic_opt)):
        arrays.extend(p.tobytes() for p in network.parameters())
        arrays.extend(m.tobytes() for m in optimizer._m)
        arrays.extend(v.tobytes() for v in optimizer._v)
        arrays.append(optimizer._t)
    return (
        tuple(arrays),
        repr(agent._rng.bit_generator.state),
        tuple(agent.history.mean_rewards),
        tuple(agent.history.feasible_fractions),
    )


def oracle_train(
    self,
    parent_pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
    reward_fn: ScalarReward,
    iterations: int = 1_000,
    batch_size: int = 4,
) -> TrainingHistory:
    """Train the agent on a dataset ``D`` of parent pairs with the given reward."""
    if not parent_pairs:
        raise ValueError("training requires at least one parent pair")
    if iterations <= 0 or batch_size <= 0:
        raise ValueError("iterations and batch_size must be positive")
    for _ in range(iterations):
        batch_rewards: List[float] = []
        feasible = 0
        actor_grads = None
        critic_grads = None
        for _ in range(batch_size):
            idx = int(self._rng.integers(0, len(parent_pairs)))
            parent_a, parent_b = parent_pairs[idx]
            state = self.state(parent_a, parent_b)
            out, actor_cache = self.actor.forward(state, keep_cache=True)
            if self._binary:
                probs = np.clip(out, _PROB_CLIP, 1.0 - _PROB_CLIP)
                child = (self._rng.random(self.n_components) < probs[0]).astype(int)
            else:
                probs = self._softmax(
                    out[0].reshape(self.n_components, self.n_locations)
                )
                indices = self._sample_categorical(probs, self._rng)
                child = np.asarray(
                    [self.locations[int(i)] for i in indices], dtype=int
                )
            self._apply_constraints(child)
            reward = float(reward_fn([int(v) for v in child], parent_a, parent_b))
            batch_rewards.append(reward)
            if reward > 0:
                feasible += 1

            value, critic_cache = self.critic.forward(state, keep_cache=True)
            advantage = reward - float(value[0, 0])

            # Policy gradient: minimize -advantage * log π(child | state).
            if self._binary:
                dlogpi_dp = child / probs[0] - (1 - child) / (1 - probs[0])
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
            grads_a = self.actor.backward(actor_cache, actor_grad_out)
            # Critic: minimize (value - reward)^2.
            critic_grad_out = np.array([[2.0 * (float(value[0, 0]) - reward) / batch_size]])
            grads_c = self.critic.backward(critic_cache, critic_grad_out)

            actor_grads = self._accumulate(actor_grads, grads_a)
            critic_grads = self._accumulate(critic_grads, grads_c)

        self.actor.apply_gradients(actor_grads, self._actor_opt)
        self.critic.apply_gradients(critic_grads, self._critic_opt)
        self.history.mean_rewards.append(float(np.mean(batch_rewards)))
        self.history.feasible_fractions.append(feasible / batch_size)
    return self.history
