"""A truth plant whose disturbance lies in a network's span, for the
adaptation-descent checks (acceptance criterion c5 and its tests)."""

import numpy as np

from neurofl.dynamics import GainVector, StateVector
from neurofl.plants import PlantModel
from neurofl.rbf import RbfNetwork, _bind_basis
from neurofl.simulation import ReferenceSpec, _reference_values


def ideal_disturbance_plant(base: PlantModel, target: RbfNetwork, ref: ReferenceSpec, lam: float) -> PlantModel:
    """Truth plant whose extra forcing is the target network's output at the
    instantaneous combined error: d = sum_i w*_i phi_i(s(x, t)).

    The resulting disturbance lies exactly in the compensator's span when the
    compensator shares the target's centers and widths, which makes adaptation
    descent exact up to discretization. The target's basis is bound once, with
    the plant.
    """
    if ref.order != base.order:
        raise ValueError("reference order must equal plant order")
    filt = GainVector(lam, base.order).filter_weights
    w_target = target.weights
    basis = _bind_basis(target)
    base_f = base.f_eval
    if not ref.components:
        xd_const = _reference_values(ref, 0.0)[0]
        ref_vals = lambda t: xd_const
    else:
        ref_vals = lambda t: _reference_values(ref, t)[0]

    def f_with_net(x, t):
        vals = x.values if isinstance(x, StateVector) else x
        s = float(np.dot(filt, vals - ref_vals(t)))
        return base_f(x, t) + float(np.dot(w_target, basis(s)))

    return PlantModel(
        order=base.order,
        f_eval=f_with_net,
        b_eval=base.b_eval,
        b_min=base.b_min,
        name=f"{base.name}+rbf_disturbance",
        params=dict(base.params),
    )
