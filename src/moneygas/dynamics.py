"""Conservative pairwise-exchange Monte Carlo kernels.

Every model is simulated on the constraint set picked out by its conserved
money-function total (plus the per-agent floors). In shifted coordinates
each agent contributes one or more nonnegative "slots", and an event makes
the selected slots jointly uniform given their sum: a uniform split for a
pair of slots, a Dirichlet(1, ..., 1) draw for more. Such moves leave the
uniform measure on the constrained simplex invariant, so the stationary
per-slot marginal is the exponential law with the model's closed-form
temperature; infeasible proposals (overdraft caps, cash shortfalls) are
rejected, never clamped.

The credit market additionally keeps every per-agent net position
M_i = x_i + assets_i - liabilities_i fixed: credit moves carry a
compensating cash leg, and lending/repayment enter the equilibrium chain
as a matched pair ("turnover") so total credit stays on its conserved
shell while the composition mixes.

``KERNELS`` holds one entry per simulable model kind: its initial
configurations, its moves, its recorded coordinates, its conserved value
and bounds, and the marginals fitted to its samples. A move acts on arrays
of agent indices, one array per role in the event. ``run_chain`` advances
whole sweeps of disjoint events drawn from a random permutation, which is
statistically identical to repeated single events and fast enough for
1e7-event runs; ``step`` applies the same move to one group of agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ensembles import ModelKind, ModelSpec, MoneygasError

AUDIT_INTERVAL = 100_000
CONSERVATION_RTOL = 1e-9


class DynamicsError(MoneygasError):
    """Invalid dynamics request (infeasible totals, bad window parameters)."""


class ConservationError(RuntimeError):
    """A conservation audit found drift beyond tolerance."""


@dataclass(frozen=True)
class EventRecord:
    kind: str
    agents: tuple[int, ...]
    accepted: bool


@dataclass
class Population:
    """Mutable per-agent coordinates of one model realization."""

    spec: ModelSpec
    conserved_total: float
    cash: np.ndarray | None = None
    accounts: np.ndarray | None = None
    assets: np.ndarray | None = None
    liabilities: np.ndarray | None = None
    initial_net_positions: np.ndarray | None = None
    events_applied: int = 0
    rejected_events: int = 0

    @property
    def n_agents(self) -> int:
        return self.spec.n_agents

    def net_positions(self) -> np.ndarray:
        if self.assets is None:
            raise DynamicsError("net positions are defined for the credit-market model")
        return self.cash + self.assets - self.liabilities

    def conserved_value(self) -> float:
        """Compensated re-summation of the model's conserved money function."""
        return _kernel(self.spec).conserved(self)

    def coordinate_scale(self) -> float:
        """Magnitude reference for relative drift when the total is near zero."""
        parts = [np.abs(a).sum() for a in (self.cash, self.accounts, self.assets) if a is not None]
        return max(abs(self.conserved_total), float(sum(parts)), 1.0)

    def check_invariants(self) -> None:
        if self.cash is not None and self.cash.min() < 0:
            raise ConservationError(f"negative cash: {self.cash.min()}")
        _kernel(self.spec).bounds(self)
        drift = abs(self.conserved_value() - self.conserved_total)
        if drift > CONSERVATION_RTOL * self.coordinate_scale():
            raise ConservationError(
                f"conserved total drifted by {drift} (tolerance "
                f"{CONSERVATION_RTOL * self.coordinate_scale()})"
            )


# ---------------------------------------------------------------------------
# Initial configurations
# ---------------------------------------------------------------------------


def _simplex_sample(rng: np.random.Generator, size: int, total: float) -> np.ndarray:
    """Uniform point on the simplex of ``size`` nonnegative slots summing to total."""
    if size == 1:
        return np.array([total], dtype=float)
    spacings = rng.standard_exponential(size)
    return spacings * (total / spacings.sum())


def _init_cash(pop: Population, policy: str, rng: np.random.Generator) -> None:
    n, total = pop.n_agents, pop.conserved_total
    if total < 0:
        raise DynamicsError(f"infeasible total {total}: cash cannot be negative")
    pop.cash = np.full(n, total / n) if policy == "equal" else _simplex_sample(rng, n, total)


def _init_accounts(pop: Population, policy: str, rng: np.random.Generator) -> None:
    n, d, total = pop.n_agents, pop.spec.overdraft, pop.conserved_total
    if total < -n * d:
        raise DynamicsError(f"infeasible total {total}: floor is {-n * d}")
    if policy == "equal":
        pop.accounts = np.full(n, total / n)
    else:
        pop.accounts = _simplex_sample(rng, n, total + n * d) - d


def _init_cash_and_accounts(
    pop: Population, policy: str, rng: np.random.Generator, capped: bool
) -> None:
    """Cash plus one account per agent; ``capped`` keeps accounts at or below zero."""
    n, d, total = pop.n_agents, pop.spec.overdraft, pop.conserved_total
    if total < -n * d or (capped and total <= -n * d):
        raise DynamicsError(f"infeasible total {total}: floor is {-n * d}")
    if policy == "equal":
        per_agent = total / n
        if per_agent >= 0:
            pop.cash, pop.accounts = np.full(n, per_agent), np.zeros(n)
        else:
            pop.cash, pop.accounts = np.zeros(n), np.full(n, per_agent)
    elif not capped:
        slots = _simplex_sample(rng, 2 * n, total + n * d)
        pop.cash, pop.accounts = slots[:n], slots[n:] - d
    else:
        pop.accounts = -d * rng.random(n)
        cash_total = total - math.fsum(pop.accounts)
        if cash_total < 0:
            raise DynamicsError(f"infeasible total {total} for the drawn account balances")
        pop.cash = _simplex_sample(rng, n, cash_total)


def _init_credit(pop: Population, policy: str, rng: np.random.Generator) -> None:
    """Total credit is the conserved total; the monetary base is split as cash."""
    n, total, base = pop.n_agents, pop.conserved_total, pop.spec.volume_x
    if total < 0:
        raise DynamicsError(f"infeasible credit total {total}")
    if policy == "equal":
        pop.cash = np.full(n, base / n)
        pop.assets = np.full(n, total / n)
        pop.liabilities = np.full(n, total / n)
    else:
        pop.cash = _simplex_sample(rng, n, base)
        pop.assets = _simplex_sample(rng, n, total)
        pop.liabilities = _simplex_sample(rng, n, total)
    pop.initial_net_positions = pop.net_positions()


def _init_classes(pop: Population, policy: str, rng: np.random.Generator) -> None:
    n, total, classes = pop.n_agents, pop.conserved_total, pop.spec.asset_classes
    if total < 0:
        raise DynamicsError(f"infeasible total {total}")
    if policy == "equal":
        pop.accounts = np.full((n, classes), total / (n * classes))
    else:
        pop.accounts = _simplex_sample(rng, n * classes, total).reshape(n, classes)


def init_population(
    spec: ModelSpec, policy: str, total: float, seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Population:
    """Build a valid starting configuration carrying the conserved total.

    ``policy`` is "equal" (every agent at the same point) or
    "uniform-random" (a random point of the constraint set). For the
    credit market ``total`` is the total credit; the monetary base comes
    from the model spec and is split equally as cash.
    """
    if policy not in ("equal", "uniform-random"):
        raise DynamicsError(f"unknown init policy {policy!r}")
    kernel = _kernel(spec)
    if rng is None:
        rng = np.random.default_rng(seed)
    pop = Population(spec=spec, conserved_total=float(total))
    kernel.init(pop, policy, rng)
    pop.check_invariants()
    return pop


# ---------------------------------------------------------------------------
# Moves: each acts on one agent-index array per role (a permutation slice in
# a sweep, one agent in a step; ``slice(None)`` for whole-population
# resplits) and returns the number of rejected events.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    name: str
    arity: int  # agents per event; 1 means every agent resplits in one sweep
    apply: Callable[..., int]


def _cash_pair(pop: Population, rng: np.random.Generator, j, k) -> int:
    s = pop.cash[j] + pop.cash[k]
    first = rng.random(s.size) * s
    pop.cash[j] = first
    pop.cash[k] = s - first
    return 0


def _account_pair(pop: Population, rng: np.random.Generator, j, k) -> int:
    """Uniform split of the pair total in the shifted coordinate z = y + d."""
    d = pop.spec.overdraft
    s = (pop.accounts[j] + d) + (pop.accounts[k] + d)
    first = rng.random(s.size) * s
    pop.accounts[j] = first - d
    pop.accounts[k] = (s - first) - d
    return 0


def _pair_resample(pop: Population, rng: np.random.Generator, j, k, capped: bool) -> int:
    """Dirichlet redraw of both agents' (cash, shifted account) slots.

    ``capped`` rejects draws that push an account above zero (no credit).
    """
    d = pop.spec.overdraft
    s = (pop.cash[j] + pop.accounts[j] + d) + (pop.cash[k] + pop.accounts[k] + d)
    g = rng.standard_exponential((s.size, 4))
    g *= (s / g.sum(axis=1))[:, None]
    if capped:
        accept = (g[:, 1] <= d) & (g[:, 3] <= d)
        j, k, g = j[accept], k[accept], g[accept]
    pop.cash[j] = g[:, 0]
    pop.accounts[j] = g[:, 1] - d
    pop.cash[k] = g[:, 2]
    pop.accounts[k] = g[:, 3] - d
    return s.size - j.size


def _resplit(pop: Population, rng: np.random.Generator, i, capped: bool) -> int:
    """Uniform split of each agent's own wealth between cash and account."""
    d = pop.spec.overdraft
    w = pop.cash[i] + pop.accounts[i] + d
    z_new = rng.random(w.size) * (np.minimum(d, w) if capped else w)
    pop.cash[i] = w - z_new
    pop.accounts[i] = z_new - d
    return 0


def _credit_transfer(
    pop: Population, rng: np.random.Generator, j, k, holdings: str, cash_sign: float
) -> int:
    """Reshuffle holdings[j] + holdings[k] with a compensating cash leg.

    cash_sign=-1 for asset claims (buyer pays cash), +1 for liabilities
    (the agent taking on more debt receives cash).
    """
    held = getattr(pop, holdings)
    s = held[j] + held[k]
    delta = rng.random(s.size) * s - held[j]
    cash_j = pop.cash[j] + cash_sign * delta
    cash_k = pop.cash[k] - cash_sign * delta
    accept = (cash_j >= 0) & (cash_k >= 0)
    ja, ka, da = j[accept], k[accept], delta[accept]
    held[ja] += da
    held[ka] -= da
    pop.cash[ja] = cash_j[accept]
    pop.cash[ka] = cash_k[accept]
    return s.size - ja.size


def _turnover(pop: Population, rng: np.random.Generator, g0, g1, g2, g3) -> int:
    """g0 lends to g1 while g3 repays g2 the same amount; total credit stays put."""
    scale = 2.0 * pop.conserved_total / pop.n_agents
    amount = rng.random(g0.size) * scale
    accept = (
        (pop.cash[g0] >= amount)
        & (pop.assets[g2] >= amount)
        & (pop.cash[g3] >= amount)
        & (pop.liabilities[g3] >= amount)
    )
    a = amount[accept]
    i0, i1, i2, i3 = g0[accept], g1[accept], g2[accept], g3[accept]
    pop.cash[i0] -= a
    pop.assets[i0] += a
    pop.cash[i1] += a
    pop.liabilities[i1] += a
    pop.cash[i2] += a
    pop.assets[i2] -= a
    pop.cash[i3] -= a
    pop.liabilities[i3] -= a
    return g0.size - a.size


def _class_pair(pop: Population, rng: np.random.Generator, j, k) -> int:
    """Uniform split of one randomly chosen asset class per pair."""
    c = rng.integers(pop.spec.asset_classes, size=j.size)
    s = pop.accounts[j, c] + pop.accounts[k, c]
    first = rng.random(j.size) * s
    pop.accounts[j, c] = first
    pop.accounts[k, c] = s - first
    return 0


def _class_resplit(pop: Population, rng: np.random.Generator, i) -> int:
    totals = pop.accounts[i].sum(axis=1)
    g = rng.standard_exponential((totals.size, pop.spec.asset_classes))
    pop.accounts[i] = g * (totals / g.sum(axis=1))[:, None]
    return 0


_CASH_PAIR = Move("pair_reshuffle", 2, _cash_pair)
_ACCOUNT_PAIR = Move("pair_reshuffle_shifted", 2, _account_pair)
_LOAN_SALE = Move("loan_sale", 2, partial(_credit_transfer, holdings="assets", cash_sign=-1.0))
_DEBT_ASSUMPTION = Move(
    "debt_assumption", 2, partial(_credit_transfer, holdings="liabilities", cash_sign=1.0)
)
_TURNOVER = Move("turnover", 4, _turnover)
_CLASS_PAIR = Move("pair_reshuffle_class", 2, _class_pair)
_CLASS_RESPLIT = Move("class_resplit", 1, _class_resplit)


def _cash_and_account_moves(capped: bool) -> tuple[Move, ...]:
    return (
        Move("pair_resample", 2, partial(_pair_resample, capped=capped)),
        Move("resplit", 1, partial(_resplit, capped=capped)),
    )


# ---------------------------------------------------------------------------
# Bounds beyond nonnegative cash and the conserved total
# ---------------------------------------------------------------------------


def _account_floor(pop: Population) -> None:
    if pop.accounts.min() < -pop.spec.overdraft:
        raise ConservationError(
            f"account below its floor: {pop.accounts.min()} < {-pop.spec.overdraft}"
        )


def _no_credit(pop: Population) -> None:
    _account_floor(pop)
    if pop.accounts.max() > 0:
        raise ConservationError(f"positive account in the no-credit model: {pop.accounts.max()}")


def _credit_ledger(pop: Population) -> None:
    for name, arr in (("assets", pop.assets), ("liabilities", pop.liabilities)):
        if arr.min() < 0:
            raise ConservationError(f"negative {name}: {arr.min()}")
    base = pop.spec.volume_x
    cash_total = math.fsum(pop.cash)
    if abs(cash_total - base) > CONSERVATION_RTOL * max(base, 1.0):
        raise ConservationError(f"monetary base drifted: {cash_total} != {base}")
    net = math.fsum(pop.assets) - math.fsum(pop.liabilities)
    if abs(net) > CONSERVATION_RTOL * max(math.fsum(pop.assets), 1.0):
        raise ConservationError(f"aggregate credit/debt mismatch: {net}")
    shift = np.abs(pop.net_positions() - pop.initial_net_positions)
    scale = max(1.0, float(np.abs(pop.initial_net_positions).max()))
    if shift.max() > CONSERVATION_RTOL * scale:
        raise ConservationError(f"per-agent net position drifted by {shift.max()}")


# ---------------------------------------------------------------------------
# The kernel table
# ---------------------------------------------------------------------------


def _pooled_mean(coords: dict[str, np.ndarray]) -> float:
    """Money per agent when the coordinates share one law (classes pooled)."""
    return float(np.concatenate([v.ravel() for v in coords.values()]).mean()) * len(coords)


def _sum_of_means(coords: dict[str, np.ndarray]) -> float:
    return float(sum(v.mean() for v in coords.values()))


@dataclass(frozen=True)
class Kernel:
    """Everything the chains and the runner need to know about one model kind."""

    init: Callable[[Population, str, np.random.Generator], None]
    moves: Callable[[ModelSpec], tuple[Move, ...]]  # rotated one per sweep or step
    coordinates: Callable[[Population], dict[str, np.ndarray]]  # recorded copies
    conserved: Callable[[Population], float]
    bounds: Callable[[Population], None]
    marginals: Callable[[ModelSpec], list[tuple[str, list[str], float]]]  # (label, names, floor)
    money_per_agent: Callable[[dict[str, np.ndarray]], float]


KERNELS: dict[ModelKind, Kernel] = {
    ModelKind.CASH_ONLY: Kernel(
        init=_init_cash,
        moves=lambda spec: (_CASH_PAIR,),
        coordinates=lambda pop: {"x": pop.cash.copy()},
        conserved=lambda pop: math.fsum(pop.cash),
        bounds=lambda pop: None,
        marginals=lambda spec: [("x", ["x"], 0.0)],
        money_per_agent=_pooled_mean,
    ),
    ModelKind.OVERDRAFT: Kernel(
        init=_init_accounts,
        moves=lambda spec: (_ACCOUNT_PAIR,),
        coordinates=lambda pop: {"z": pop.accounts + pop.spec.overdraft},
        conserved=lambda pop: math.fsum(pop.accounts),
        bounds=_account_floor,
        marginals=lambda spec: [("z", ["z"], 0.0)],
        money_per_agent=_pooled_mean,
    ),
    ModelKind.COMBINED: Kernel(
        init=partial(_init_cash_and_accounts, capped=False),
        moves=lambda spec: _cash_and_account_moves(capped=False),
        coordinates=lambda pop: {"x": pop.cash.copy(), "y": pop.accounts.copy()},
        conserved=lambda pop: math.fsum(pop.cash) + math.fsum(pop.accounts),
        bounds=_account_floor,
        marginals=lambda spec: [("x", ["x"], 0.0), ("y", ["y"], -spec.overdraft)],
        money_per_agent=_sum_of_means,
    ),
    ModelKind.RESTRICTED: Kernel(
        init=partial(_init_cash_and_accounts, capped=True),
        moves=lambda spec: _cash_and_account_moves(capped=True),
        coordinates=lambda pop: {"x": pop.cash.copy(), "y": pop.accounts.copy()},
        conserved=lambda pop: math.fsum(pop.cash) + math.fsum(pop.accounts),
        bounds=_no_credit,
        marginals=lambda spec: [("x", ["x"], 0.0)],
        money_per_agent=_sum_of_means,
    ),
    ModelKind.CREDIT_MARKET: Kernel(
        init=_init_credit,
        # Turnover needs four distinct agents; smaller markets only trade.
        moves=lambda spec: (
            _LOAN_SALE, _DEBT_ASSUMPTION, _TURNOVER if spec.n_agents >= 4 else _LOAN_SALE
        ),
        coordinates=lambda pop: {"assets": pop.assets.copy()},
        conserved=lambda pop: math.fsum(pop.assets),
        bounds=_credit_ledger,
        marginals=lambda spec: [("assets", ["assets"], 0.0)],
        money_per_agent=_pooled_mean,
    ),
    ModelKind.MULTI_ASSET: Kernel(
        init=_init_classes,
        # A single class has nothing to resplit.
        moves=lambda spec: (
            (_CLASS_PAIR, _CLASS_RESPLIT) if spec.asset_classes > 1 else (_CLASS_PAIR,)
        ),
        coordinates=lambda pop: {
            f"y_{c}": pop.accounts[:, c].copy() for c in range(pop.spec.asset_classes)
        },
        conserved=lambda pop: math.fsum(pop.accounts.ravel()),
        bounds=_account_floor,
        marginals=lambda spec: [("y_pooled", [f"y_{c}" for c in range(spec.asset_classes)], 0.0)],
        money_per_agent=_pooled_mean,
    ),
}


def _kernel(spec: ModelSpec) -> Kernel:
    try:
        return KERNELS[spec.kind]
    except KeyError:
        raise DynamicsError(f"no exchange dynamics for model kind {spec.kind.value}") from None


def _moves(spec: ModelSpec) -> tuple[Move, ...]:
    if spec.n_agents < 2:
        raise DynamicsError("pair exchange needs at least 2 agents")
    return _kernel(spec).moves(spec)


# ---------------------------------------------------------------------------
# Single events and sweeps
# ---------------------------------------------------------------------------


def step(pop: Population, rng: np.random.Generator) -> EventRecord:
    """Apply exactly one exchange event in place and report it.

    The event is the sweep's move applied to one group of distinct agents.
    Moves rotate with the population's event counter, so a step sequence
    matches the sweep dynamics in law.
    """
    moves = _moves(pop.spec)
    move = moves[pop.events_applied % len(moves)]
    pop.events_applied += 1
    agents = rng.choice(pop.n_agents, size=move.arity, replace=False)
    rejected = move.apply(pop, rng, *agents[:, None])
    pop.rejected_events += rejected
    return EventRecord(move.name, tuple(agents.tolist()), rejected == 0)


def _sweep(pop: Population, rng: np.random.Generator, move: Move) -> int:
    """One sweep of disjoint events; returns the number of events applied."""
    n = pop.n_agents
    if move.arity == 1:
        groups, events = (slice(None),), n
    else:
        events = n // move.arity
        groups = rng.permutation(n)[: events * move.arity].reshape(move.arity, events)
    pop.rejected_events += move.apply(pop, rng, *groups)
    return events


# ---------------------------------------------------------------------------
# Chains and recorded samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainMeta:
    seed: int
    kernel: str
    steps: int
    burn_in: int
    thin: int
    policy: str
    total: float
    spec: ModelSpec
    events_run: int
    rejected_events: int
    max_drift: float


def samples_csv(record_steps, coords: dict[str, np.ndarray]) -> bytes:
    """Long-format CSV ``step,agent,coord_name,value``: records, then names, then agents.

    ``coords`` maps each coordinate name to an (n_records, N) array. Values
    are Python float literals, so ``float(value)`` restores every recorded
    double exactly.
    """
    names = sorted(coords)
    n_agents = coords[names[0]].shape[1] if names else 0
    tails = {name: [f",{agent},{name}," for agent in range(n_agents)] for name in names}
    chunks = [b"step,agent,coord_name,value\n"]
    for r, step_index in enumerate(record_steps):
        head = str(step_index)
        for name in names:
            row = coords[name][r].tolist()
            chunks.append(
                "".join([f"{head}{tail}{value!r}\n" for tail, value in zip(tails[name], row)])
                .encode()
            )
    return b"".join(chunks)


@dataclass
class SampleSet:
    """Thinned equilibrium records: one array (n_records, N) per coordinate."""

    coords: dict[str, np.ndarray]
    record_steps: np.ndarray
    meta: ChainMeta

    @property
    def n_records(self) -> int:
        return int(self.record_steps.size)

    def pooled(self, names: list[str] | None = None) -> np.ndarray:
        picked = self.coords if names is None else {k: self.coords[k] for k in names}
        return np.concatenate([v.ravel() for v in picked.values()])

    def csv_bytes(self) -> bytes:
        return samples_csv(self.record_steps.tolist(), self.coords)


def default_burn_in(n_agents: int) -> int:
    return 100 * n_agents


def default_thin(n_agents: int) -> int:
    return n_agents


def recorded_coordinates(pop: Population) -> dict[str, np.ndarray]:
    """Model-relevant marginal coordinates, copied out of the population."""
    return _kernel(pop.spec).coordinates(pop)


def advance(
    pop: Population, rng: np.random.Generator, n_events: int, phase: int = 0
) -> tuple[int, int]:
    """Apply whole sweeps until at least ``n_events`` events ran.

    Returns (events applied, next phase) so callers can interleave their
    own audits or recording with further calls.
    """
    moves = _moves(pop.spec)
    events = 0
    while events < n_events:
        events += _sweep(pop, rng, moves[phase % len(moves)])
        phase += 1
    pop.events_applied += events
    return events, phase


def run_chain(
    spec: ModelSpec,
    policy: str,
    total: float,
    steps: int,
    burn_in: int | None = None,
    thin: int | None = None,
    seed: int = 0,
) -> SampleSet:
    """Run an exchange chain and return thinned equilibrium samples.

    Parameters
    ----------
    spec, policy, total : model, init policy and conserved total.
    steps : total number of exchange events.
    burn_in, thin : recording window in events; default to 100*N and N.
    seed : seeds one PCG64 stream driving init and every event.

    A compensated conservation audit runs every AUDIT_INTERVAL events.

    Records fire at event counts burn_in + k*thin (k >= 1, up to steps);
    identical arguments reproduce identical samples byte for byte.
    """
    n = spec.n_agents
    if burn_in is None:
        burn_in = default_burn_in(n)
    if thin is None:
        thin = default_thin(n)
    if burn_in < 0 or steps <= burn_in:
        raise DynamicsError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    if thin < 1:
        raise DynamicsError(f"thin must be >= 1, got {thin}")
    moves = _moves(spec)
    rng = np.random.default_rng(seed)
    pop = init_population(spec, policy, total, rng=rng)

    n_records = (steps - burn_in) // thin
    snapshots: list[dict[str, np.ndarray]] = []
    record_steps = np.empty(n_records, dtype=np.int64)
    next_record = 0
    events = 0
    phase = 0
    next_audit = AUDIT_INTERVAL
    max_drift = 0.0
    scale = pop.coordinate_scale()
    while events < steps or next_record < n_records:
        events += _sweep(pop, rng, moves[phase % len(moves)])
        phase += 1
        while next_record < n_records and burn_in + (next_record + 1) * thin <= events:
            record_steps[next_record] = burn_in + (next_record + 1) * thin
            snapshots.append(recorded_coordinates(pop))
            next_record += 1
        if events >= next_audit:
            pop.check_invariants()
            max_drift = max(max_drift, abs(pop.conserved_value() - pop.conserved_total) / scale)
            next_audit += AUDIT_INTERVAL
    pop.check_invariants()
    max_drift = max(max_drift, abs(pop.conserved_value() - pop.conserved_total) / scale)
    pop.events_applied = events

    coords = {
        name: np.stack([snap[name] for snap in snapshots]) if snapshots else np.empty((0, n))
        for name in (snapshots[0] if snapshots else recorded_coordinates(pop))
    }
    meta = ChainMeta(
        seed=seed,
        kernel=spec.kind.value,
        steps=steps,
        burn_in=burn_in,
        thin=thin,
        policy=policy,
        total=float(total),
        spec=spec,
        events_run=events,
        rejected_events=pop.rejected_events,
        max_drift=max_drift,
    )
    return SampleSet(coords=coords, record_steps=record_steps, meta=meta)
