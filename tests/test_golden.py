"""Golden outputs of short behavioural-cloning runs and greedy rollouts.

The frozen-bridge values were recorded with the bridge running every block
over every row; the joint-training losses were recorded with attention run as
a chain of per-operation autodiff nodes.  A change meant to speed the policy
up must reproduce them: losses to round-off, actions exactly.

Goldens and digests, here and elsewhere in the suite, are compared at one
BLAS thread (``OPENBLAS_NUM_THREADS=1``): the same seeds give other bits at
two threads.
"""

import numpy as np

from planact.gridworld import OBJECT_NAMES, EnvConfig, collect_demos, plan_for
from planact.policy import ControlModel, PolicyConfig, bc_train, evaluate_policy
from planact.vocab import Vocabulary

# initial loss, one loss per minibatch step (2 epochs of 6), final loss
LOSSES = [
    1.6721514381461913,
    1.6635989317901219,
    1.588753722401862,
    1.5740877563411426,
    1.7543904647976736,
    1.696924005707792,
    1.6143473332333746,
    1.623654028960743,
    1.6005417639765498,
    1.6056094709881257,
    1.5764589303128451,
    1.6323652808056521,
    1.634414147924707,
    1.5579123658914715,
]

# bridge trained jointly (its backward runs through every attention): initial
# loss, one loss per minibatch step (1 epoch of 6), final loss
JOINT_LOSSES = [
    1.6721514381461913,
    1.663598931790122,
    1.633868282987473,
    1.5590975816722628,
    1.6933978510166718,
    1.652084783535721,
    1.5593616778286625,
    1.5467787832434976,
]

# greedy actions of each of the 10 episodes from seed 10,000: after two
# epochs the policy still moves right everywhere, so the logits below carry
# the detail
ACTIONS = ["3" * 50] * 10

# logits of each episode's first observation under its plan
LOGITS = [
    [0.2146893830802012, -0.2635577970780942, 0.23699751621414375, 0.24707918922527605, -0.2271283017579416],
    [0.2153689487905303, -0.26481785545678366, 0.24056603491880574, 0.2598635817549232, -0.2223068398429796],
    [0.21314038216299666, -0.2622473505833418, 0.23741963058820661, 0.24773082614434783, -0.22400525465226104],
    [0.215188538660415, -0.2692017054571094, 0.24423771707434005, 0.25594139796866644, -0.22211821577363156],
    [0.2179528423533741, -0.26863972507076284, 0.23786748076085448, 0.25408621951023236, -0.2283220082513927],
    [0.2162708025952063, -0.26532255100358276, 0.24025062542769213, 0.25817677665915084, -0.22372701273126572],
    [0.21258993046599192, -0.26160801028898867, 0.23550676851561148, 0.25114342779412513, -0.22423737243085193],
    [0.2142788089911238, -0.26211330785694453, 0.23682622317555027, 0.24673039476745715, -0.2243972084572679],
    [0.21409115087267788, -0.26444679390304227, 0.2374003802031422, 0.24619556809495294, -0.22584525481190376],
    [0.21262974676314625, -0.26051614775307014, 0.23729189558554983, 0.24926055891205331, -0.22350183215687813],
]


def test_bc_losses_and_greedy_rollouts_match_golden():
    env = EnvConfig()
    vocab = Vocabulary.build(plan_for(name) for name in OBJECT_NAMES)
    model = ControlModel(np.random.default_rng(0), env, vocab)
    log = bc_train(model, collect_demos(env, [2, 3]), seed=1, epochs=2)
    np.testing.assert_allclose(
        [log.initial_loss, *log.losses, log.final_loss], LOSSES, rtol=0, atol=1e-12
    )

    actions, first = [], []

    def greedy(episode_env, obs, plan_text):
        if not first or first[-1][0] is not episode_env:
            first.append((episode_env, obs, plan_text))
            actions.append("")
        action = model.act(obs, plan_text)
        actions[-1] += str(action)
        return action

    evaluate_policy(greedy, env, episodes=10, base_seed=10_000)
    assert actions == ACTIONS
    logits = model.forward(np.stack([o for _, o, _ in first]), [p for _, _, p in first])
    np.testing.assert_allclose(logits.data, LOGITS, rtol=0, atol=1e-12)


def test_joint_bc_losses_match_golden():
    env = EnvConfig()
    vocab = Vocabulary.build(plan_for(name) for name in OBJECT_NAMES)
    model = ControlModel(np.random.default_rng(0), env, vocab, PolicyConfig(train_bridge=True))
    log = bc_train(model, collect_demos(env, [2, 3]), seed=1, epochs=1)
    np.testing.assert_allclose(
        [log.initial_loss, *log.losses, log.final_loss], JOINT_LOSSES, rtol=0, atol=1e-12
    )
