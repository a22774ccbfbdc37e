"""One more deploy costs the same exact arithmetic however many apps the tree
holds.

Composition keeps per-node sums and re-settles only the changed path, so a
deploy into a tree that is not over-committed must do as many Fraction
operations with 600 apps on the leaves as with 100. The count is taken by
wrapping the Fraction operators for the length of one deploy() call.
"""

from fractions import Fraction

import pytest

from hiersched.contracts import Contract
from hiersched.deployment import DeploymentRequest, Outcome, deploy
from hiersched.hierarchy import new_hierarchy
from helpers import edf_spec, rr_spec, stride_spec

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__")
LEAVES = 30


def loaded_tree(n_apps):
    """30 leaves (EDF, STRIDE and RR in turn) with n_apps dealt out over them,
    composed once; the root and every leaf keep spare capacity."""
    h = new_hierarchy()
    leaves = []
    for j in range(LEAVES // 3):
        leaves.append((h.attach_scheduler(0, edf_spec(f"edf{j}", Contract.resbh(30, 1000))),
                       Contract.resbh(1, 1000)))
        leaves.append((h.attach_scheduler(0, stride_spec(f"st{j}", Contract.ps(40_000))),
                       Contract.ps(1500)))
        leaves.append((h.attach_scheduler(0, rr_spec(f"rr{j}", Contract.be())),
                       Contract.be()))
    for i in range(n_apps):
        nid, request = leaves[i % LEAVES]
        h.attach_application(nid, f"a{i}", request)
    result = h.compose()
    assert result.feasible
    assert not any(n.degraded for n in h.nodes())
    return h


def count_deploy(monkeypatch, h, req):
    calls = [0]

    def counting(op):
        def wrapped(*args):
            calls[0] += 1
            return op(*args)
        return wrapped

    with monkeypatch.context() as m:
        for name in OPERATORS:
            m.setattr(Fraction, name, counting(getattr(Fraction, name)))
        decision = deploy(h, req)
    return decision, calls[0]


@pytest.mark.parametrize("request_", [
    Contract.resbh(1, 1000), Contract.ps(1500), Contract.be(),
], ids=str)
def test_one_more_deploy_costs_the_same_at_100_and_600_apps(monkeypatch, request_):
    req = DeploymentRequest("extra", "", request_)
    small, n_small = count_deploy(monkeypatch, loaded_tree(100), req)
    large, n_large = count_deploy(monkeypatch, loaded_tree(600), req)
    assert small.outcome is large.outcome is Outcome.ATTACHED_EXISTING
    assert small.node_id == large.node_id
    assert n_small > 0
    assert n_large == n_small
