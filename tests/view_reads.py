"""The views of a WorldState in (slot, player, arm) order, as tests read them."""

import numpy as np


def read_views(state):
    """The view counts, view sums and snapshots of every player, each
    [S*R, M, K]: the stored arrays transposed, once the views a whole-batch
    merge left stale are copied from player 0's, and each slot's snapshot
    broadcast to its players. The counts and sums view the state's arrays."""
    state._sync_views()
    counts, sums = state.views.transpose(0, 3, 2, 1)
    return counts, sums, np.broadcast_to(state.snapshot.T[:, None], counts.shape)
