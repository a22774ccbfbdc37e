"""What one node of the hierarchy decides: who runs, and for how long.

The simulator (`hiersched.engine`) decides when: it keeps time and work,
and at each decision point walks one route from the root to a leaf. At each
node on the way, the rules here decide who: `_pick` takes one of the node's
runnable children by a single precedence rule. Where the pick keeps turn
state at the node, a stride or a round-robin turn, they also decide for how
long: `_turn_end` gives the tick the picked child's turn ends there, and
`_charge_turn` moves the node's turn state by a charge of n ticks. As in
Bossa, the event machinery and the policies are apart: a rule reads a node
(`_NodeRT`) and its candidates, never the simulator, which tells a node
that a holder has left it (`_leave`).

Stride scheduling is Waldspurger & Weihl's: each key's pass grows by the
ticks it runs over its share, and the lowest pass runs next. The passes are
kept exact as integers, scaled by the lcm of the shares charged at the node
(`_NodeRT.scale`), so the contenders' passes fix the turns in advance.
"""

from math import gcd

from .contracts import ServiceClass
from .hierarchy import PolicyKind

# bound once: reading an Enum member off its class is a descriptor call,
# which the dispatch path would pay per candidate
_NULL, _RESBH, _PS, _BE, _ALL = (
    ServiceClass.NULL, ServiceClass.RESBH, ServiceClass.PS, ServiceClass.BE,
    ServiceClass.ALL,
)
_FIXED_PRIORITY = PolicyKind.FIXED_PRIORITY


def _open(grant, left):
    """Neither a NULL grant nor a RESBH one with no budget `left`."""
    service = grant.service
    return service is not _NULL and not (service is _RESBH and left == 0)


def _dispatch_order(holder):
    """A runnable holder's place in `_pick`'s order: ALL, PS, BE, then the
    reservations, RESBS and RESBH alike, each class by `pos`."""
    service = holder.grant.service
    return service is not _ALL, service is not _PS, service is not _BE, holder.pos


def _used(rt, key):
    """Ticks `key` has used of its current quantum at a node."""
    return rt.active[1] if rt.active is not None and rt.active[0] == key else 0


def _quanta_won(rt, child, left):
    """The whole quanta `child` keeps winning at stride node `rt` after the
    `left` ticks of its current one: its pass grows by its step per tick,
    the contenders' stand still, and it wins while below them (or level
    with a later `pos`). Counted at the scale the charge will use."""
    share, passes = child.grant.share, rt.passes
    m = share // gcd(rt.scale, share)
    step = rt.scale * m // share
    bar = min(passes[c.key] * m + (child.pos < c.pos) for c in rt.contenders if c is not child)
    return max(0, (bar - passes[child.key] * m - left * step - 1) // (rt.quantum * step) + 1)


def _held(rt, cands):
    """The candidate whose quantum at a node is still running, or None."""
    if rt.active is not None:
        for c in cands:
            if c.key == rt.active[0]:
                return c
    return None


class _NodeRT:
    """Budget server, runnable children and turn state for one node.

    Its holder fields are those of the simulator's `_AppRT`: `key` and
    `pos` are both its node id (ids grow with attachment), `parent` its
    parent's id (None at the root), `grant` its grant (None until the
    first; the root, which holds the whole CPU, gets none), `cap` and `rem`
    its budget server (None unless the grant is a reservation) and `since`
    the tick of its first grant. It is backlogged while `ready`, which maps
    the key of each runnable child to the child's holder, is not empty.
    `path` is the node's `SchedulerNode.path`, which its REPLENISH and
    BUDGET_EXHAUSTED rows name.
    """

    def __init__(self, node, since):
        self.key = self.pos = node.node_id
        self.parent, self.path = node.parent, node.path
        self.leaf, self.quantum = node.is_leaf(), node.spec.quantum
        self.fp = node.spec.policy is _FIXED_PRIORITY  # a FIXED_PRIORITY leaf
        self.grant = self.cap = self.rem = None
        self.since = since
        self.ready = {}
        self.cands = None  # `ready`'s holders in dispatch order, kept until it changes
        # stride: child node id or app id -> its pass times `scale`, the lcm
        # of the shares charged here, so a charge of n ticks adds
        # n * (scale // share) exactly
        self.passes = {}
        self.scale = 1
        self.contenders = []  # the candidates of the last stride pick, by pos
        self.active = None  # (key, ticks used) for quantum continuity
        # the position of the child that last held the round-robin turn, or
        # -1, before every position, if none did or it has left
        self.rr_last = -1
        self.alone = False  # the last stride/RR pick had no contender

    def backlogged(self) -> bool:
        return bool(self.ready)


def _pick(rt, t):
    """The runnable child node `rt` runs at `t`, and the kind of its turn:
    "stride" or "rr" where the pick keeps turn state at the node, else None.

    One precedence rule serves every node, VIRTUAL or leaf:
    1. reservations with budget left, by earliest end of their current
       replenishment window, ties in attachment order; a FIXED_PRIORITY
       leaf takes them in attachment order;
    2. a child granted ALL;
    3. proportional shares, by stride (`_stride_pick`);
    4. best effort, by round robin (`_rr_pick`); a FIXED_PRIORITY leaf
       takes them in attachment order, with no quantum;
    5. soft reservations with their budget spent, on slack, in
       attachment order.
    Each leaf policy offers only classes on this list, so any runnable
    candidate has a place in it. The node keeps its runnable children in
    this order, classes 1 and 5 together last (`_dispatch_order`), so with
    no budget left the first candidate's class is the one that runs.
    Classes are told apart by identity: hashing an Enum member runs Python
    code.
    """
    cands = rt.cands
    if cands is None:
        # sorted again only once `ready` moved: a holder's place cannot
        # change while it is in `ready`, as awards keep the class of the
        # request and a new node's provisional NULL grant keeps it out of
        # `ready`
        cands = rt.cands = sorted(rt.ready.values(), key=_dispatch_order)
    budgeted = [c for c in cands if c.rem]
    if budgeted:
        if rt.fp or len(budgeted) == 1:
            return budgeted[0], None
        return min(budgeted, key=lambda c: (t // c.grant.period + 1) * c.grant.period), None
    service = cands[0].grant.service
    group = [c for c in cands if c.grant.service is service]
    if service is _PS:
        return _stride_pick(rt, group), "stride"
    if service is _BE and not rt.fp:
        return _rr_pick(rt, group), "rr"
    return group[0], None


def _stride_pick(rt, cands):
    """Stride: the key still in its quantum, else the lowest pass, the
    first of equal ones. A key that joins the runnable set starts at the
    lowest pass of those that stayed, unless its own is higher. Holders
    are never reused, so the same list of them means no key joined."""
    rt.alone = len(cands) == 1
    if cands != rt.contenders:
        current = {c.key for c in cands}
        stayed = current.intersection(c.key for c in rt.contenders)
        passes = rt.passes
        floor = min((passes[k] for k in stayed), default=0)
        for k in current - stayed:
            passes[k] = max(passes.get(k, floor), floor)
        rt.contenders = cands
    if rt.alone:
        return cands[0]
    return _held(rt, cands) or min(cands, key=lambda c: rt.passes[c.key])


def _rr_pick(rt, cands):
    """Round robin: the key still in its quantum, else the first key after
    the last turn's holder in attachment order, cyclically; the first key
    if that holder has left."""
    rt.alone = len(cands) == 1
    return _held(rt, cands) or next((c for c in cands if c.pos > rt.rr_last), cands[0])


def _turn_end(rt, kind, child, t, end):
    """The tick, `end` at the latest, at which `child`'s turn of `kind` at
    node `rt`, running from `t`, ends. With no contender it goes on; else
    it lasts the rest of its quantum and, at a stride node, the whole quanta
    it keeps winning after it (`_quanta_won`)."""
    if rt.alone:
        return end
    left = rt.quantum - _used(rt, child.key)
    if kind == "stride":
        left += rt.quantum * _quanta_won(rt, child, left)
    return min(end, t + left)


def _charge_turn(rt, kind, child, n):
    """Move node `rt`'s turn state by `n` ticks run by `child` on a turn of
    `kind`: a stride pass grows by n over the share, a round-robin turn is
    the child's, and its quantum runs on."""
    key = child.key
    if kind == "stride":
        share = child.grant.share
        if rt.scale % share:  # a new share: every pass is rescaled
            m = share // gcd(rt.scale, share)
            rt.scale *= m
            rt.passes = {k: p * m for k, p in rt.passes.items()}
        rt.passes[key] += n * (rt.scale // share)
    else:
        # `child.pos`: a drained app may have left `ready` already
        rt.rr_last = child.pos
    # a quantum that runs out hands the turn back; with no contender the
    # same key takes it again
    used = (_used(rt, key) + n) % rt.quantum
    rt.active = (key, used) if used else None


def _leave(rt, holder):
    """`holder` leaves node `rt` for good: a round-robin turn it held
    passes to the first key. Positions are never reused at a node."""
    if rt.rr_last == holder.pos:
        rt.rr_last = -1
