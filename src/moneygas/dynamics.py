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

cash_only, overdraft and multi_account share one kernel: one flat array of
shifted slots z = balance + d >= 0 in ``Population.cash``, one slot per
agent, or one per account for multi_account, where d is the slot's
overdraft (0 for cash). The conserved value is sum(z) - sum(d), the only
bound is z >= 0, and the one move is the uniform pair split; the matching
pairs slots, so multi_account's chain runs over its K accounts, and the
``agent`` column of its ``samples.csv`` holds the account index. Shifting
the exponential law by the floor is the debt-limit result of Dragulescu and
Yakovenko (Eur. Phys. J. B 17, 723, 2000).

The credit market's two moves, the loan sale and the debt assumption,
reshuffle one pair's assets or liabilities with a compensating cash leg.
Each keeps every per-agent net position M_i = x_i + assets_i -
liabilities_i fixed, as well as total credit and the monetary base, so a
chain stays on one fibre: the set of states with its initial M_i.

``KERNELS`` holds one entry per simulable model kind: its initial
configurations, its moves, its recorded coordinates, its conserved value
and bounds, and the marginals fitted to its samples. Every move is a pair
or a single: it acts on the two halves of a matching, or on every agent at
once. ``run_chain`` advances whole sweeps of disjoint events, which is fast
enough for 1e7-event runs.

A pair sweep uses "shifted halves" matching. Once per epoch of N // 2 pair
sweeps, one random permutation splits the agents (the accounts, for
multi_account) into halves A and B of N // 2 each (for odd N the leftover
one sits out that epoch), and
one call draws a shift r per sweep of the epoch; the sweep pairs A[i] with
B[(i + r) mod N // 2]. Every pair move resamples its pair given the pair's
total and is symmetric in its two roles, so any pairing chosen independently
of the state keeps the uniform law invariant, and the shifts of one split
already connect all agents.
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


@dataclass
class PairEpoch:
    """One split into halves A and B, and the shift of each of its pair sweeps."""

    order: np.ndarray  # a random permutation; A is its first N // 2 agents
    doubled: np.ndarray  # B, the next N // 2 agents, twice, so B shifted by r is a slice
    shifts: np.ndarray
    sweep: int = 0

    @classmethod
    def draw(cls, n: int, rng: np.random.Generator) -> PairEpoch:
        half = n // 2
        order = rng.permutation(n)
        b = order[half:2 * half]
        # floor(u * half) is uniform on 0..half-1 (u * half < half for every double u < 1);
        # rng.integers would map ~0.14 MiB of numpy's bounded-integer code into memory.
        shifts = (rng.random(half) * half).astype(np.intp)
        return cls(order, np.concatenate([b, b]), shifts)

    def next_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """A[i] and B[(i + r) mod N // 2] for the next shift r."""
        half = self.shifts.size
        r = self.shifts[self.sweep]
        self.sweep += 1
        return self.order[:half], self.doubled[r:r + half]


@dataclass
class Population:
    """Mutable per-agent coordinates of one model realization; ``cash`` holds
    the shifted slots of cash_only, overdraft and multi_account."""

    spec: ModelSpec
    conserved_total: float
    cash: np.ndarray | None = None
    accounts: np.ndarray | None = None
    assets: np.ndarray | None = None
    liabilities: np.ndarray | None = None
    initial_net_positions: np.ndarray | None = None
    rejected_events: int = 0
    pair_epoch: PairEpoch | None = None  # the matching of the current pair sweeps

    @property
    def n_agents(self) -> int:
        return self.spec.n_agents

    def net_positions(self) -> np.ndarray:
        if self.assets is None:
            raise DynamicsError("net positions are defined for the credit-market model")
        return self.cash + self.assets - self.liabilities

    def conserved_value(self) -> float:
        """Compensated re-summation of the model's conserved money function."""
        return KERNELS[self.spec.kind].conserved(self)

    def coordinate_scale(self) -> float:
        """Magnitude reference for relative drift when the total is near zero."""
        parts = [np.abs(a).sum() for a in (self.cash, self.accounts, self.assets) if a is not None]
        return max(abs(self.conserved_total), float(sum(parts)), 1.0)

    def check_invariants(self) -> float:
        """Raise ConservationError on a violated bound or conserved total;
        returns the absolute drift of the conserved total."""
        if self.cash is not None and self.cash.min() < 0:
            raise ConservationError(f"negative cash or slot: {self.cash.min()}")
        KERNELS[self.spec.kind].bounds(self)
        drift = abs(self.conserved_value() - self.conserved_total)
        if drift > CONSERVATION_RTOL * self.coordinate_scale():
            raise ConservationError(
                f"conserved total drifted by {drift} (tolerance "
                f"{CONSERVATION_RTOL * self.coordinate_scale()})"
            )
        return drift


# ---------------------------------------------------------------------------
# Initial configurations
# ---------------------------------------------------------------------------


def _simplex_sample(rng: np.random.Generator, size: int, total: float) -> np.ndarray:
    """Uniform point on the simplex of ``size`` nonnegative slots summing to total."""
    if size == 1:
        return np.array([total], dtype=float)
    spacings = rng.standard_exponential(size)
    return spacings * (total / spacings.sum())


def _init_slots(pop: Population, policy: str, rng: np.random.Generator) -> None:
    """K shifted slots summing to total + Σd: all equal, or uniform on their simplex."""
    k, depth = pop.spec.n_accounts, pop.spec.total_overdraft
    shifted = pop.conserved_total + depth
    if shifted < 0:
        raise DynamicsError(f"infeasible total {pop.conserved_total}: total + overdrafts {depth} < 0")
    pop.cash = np.full(k, shifted / k) if policy == "equal" else _simplex_sample(rng, k, shifted)


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
    kernel = KERNELS[spec.kind]
    if rng is None:
        rng = np.random.default_rng(seed)
    pop = Population(spec=spec, conserved_total=float(total))
    kernel.init(pop, policy, rng)
    pop.check_invariants()
    return pop


# ---------------------------------------------------------------------------
# Moves: each acts on one agent-index array per role (a half of the matching;
# ``slice(None)`` for whole-population resplits) and returns the number of
# rejected events.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    name: str
    arity: int  # 2 for a pair move; 1 means every agent resplits in one sweep
    apply: Callable[..., int]


def _cash_pair(pop: Population, rng: np.random.Generator, j, k) -> int:
    s = pop.cash[j] + pop.cash[k]
    first = rng.random(s.size) * s
    pop.cash[j] = first
    pop.cash[k] = s - first
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
    held_j, held_k, cash_j, cash_k = held[j], held[k], pop.cash[j], pop.cash[k]
    delta = rng.random(j.size) * (held_j + held_k) - held_j
    reject = (cash_j + cash_sign * delta < 0) | (cash_k - cash_sign * delta < 0)
    delta[reject] = 0.0  # a rejected event writes its coordinates back unchanged
    held[j] = held_j + delta
    held[k] = held_k - delta
    pop.cash[j] = cash_j + cash_sign * delta
    pop.cash[k] = cash_k - cash_sign * delta
    return int(np.count_nonzero(reject))


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
_LOAN_SALE = Move("loan_sale", 2, partial(_credit_transfer, holdings="assets", cash_sign=-1.0))
_DEBT_ASSUMPTION = Move(
    "debt_assumption", 2, partial(_credit_transfer, holdings="liabilities", cash_sign=1.0)
)
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


def _pool(arrays) -> np.ndarray:
    """The arrays' values in one 1-D array; a view when there is one array."""
    flat = [v.ravel() for v in arrays]
    return flat[0] if len(flat) == 1 else np.concatenate(flat)


def _slot_money(spec: ModelSpec, coords: dict[str, np.ndarray]) -> float:
    """(Σz - Σd)/N: the mean slot times K/N, less the overdrafts per agent."""
    (slots,) = coords.values()
    return float(slots.mean()) * (spec.n_accounts / spec.n_agents) - spec.total_overdraft / spec.n_agents


def _pooled_mean(spec: ModelSpec, coords: dict[str, np.ndarray]) -> float:
    """Money per agent when the coordinates share one law (classes pooled)."""
    return float(_pool(coords.values()).mean()) * len(coords)


def _sum_of_means(spec: ModelSpec, coords: dict[str, np.ndarray]) -> float:
    return float(sum(v.mean() for v in coords.values()))


@dataclass(frozen=True)
class Kernel:
    """Everything the chains and the runner need to know about one model kind."""

    init: Callable[[Population, str, np.random.Generator], None]
    moves: Callable[[ModelSpec], tuple[Move, ...]]  # rotated one per sweep
    coordinates: Callable[[Population], dict[str, np.ndarray]]  # recorded copies
    conserved: Callable[[Population], float]
    bounds: Callable[[Population], None]
    marginals: Callable[[ModelSpec], list[tuple[str, list[str], float]]]  # (label, names, floor)
    # The recorded money per agent, averaged over the records.
    money_per_agent: Callable[[ModelSpec, dict[str, np.ndarray]], float]


def _slot_kernel(name: str) -> Kernel:
    """The shifted-slot kernel, recording the slots as coordinate ``name``."""
    return Kernel(
        init=_init_slots,
        moves=lambda spec: (_CASH_PAIR,),
        coordinates=lambda pop: {name: pop.cash.copy()},
        conserved=lambda pop: math.fsum(pop.cash) - pop.spec.total_overdraft,
        bounds=lambda pop: None,  # z >= 0, which check_invariants tests for cash
        marginals=lambda spec: [(name, [name], 0.0)],
        money_per_agent=_slot_money,
    )


KERNELS: dict[ModelKind, Kernel] = {
    ModelKind.CASH_ONLY: _slot_kernel("x"),
    ModelKind.OVERDRAFT: _slot_kernel("z"),
    ModelKind.MULTI_ACCOUNT: _slot_kernel("z"),
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
        moves=lambda spec: (_LOAN_SALE, _DEBT_ASSUMPTION),
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


def _moves(spec: ModelSpec) -> tuple[Move, ...]:
    if spec.n_agents < 2:
        raise DynamicsError("pair exchange needs at least 2 agents")
    return KERNELS[spec.kind].moves(spec)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _sweep(pop: Population, rng: np.random.Generator, move: Move) -> int:
    """One sweep of disjoint events; returns the number of events applied."""
    n = pop.spec.n_accounts
    if move.arity == 1:
        groups, events = (slice(None),), n
    else:
        epoch = pop.pair_epoch
        if epoch is None or epoch.sweep == epoch.shifts.size:
            epoch = pop.pair_epoch = PairEpoch.draw(n, rng)
        groups = epoch.next_pairs()
        events = groups[0].size
    pop.rejected_events += move.apply(pop, rng, *groups)
    return events


# ---------------------------------------------------------------------------
# Chains and recorded samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainMeta:
    burn_in: int
    thin: int
    total: float
    events_run: int
    rejected_events: int
    max_drift: float


def samples_csv(record_steps, coords: dict[str, np.ndarray], header: bool = True) -> bytes:
    """Long-format CSV ``step,agent,coord_name,value``: records, then names, then agents.

    ``coords`` maps each coordinate name to an (n_records, N) array. Values
    are Python float literals (``repr``), so ``float(value)`` restores every
    recorded double exactly. ``header`` False leaves out the header line, so
    the CSV of consecutive record ranges concatenates to the CSV of all of them.

    The literals come from one ``orjson.dumps`` per record, which writes
    repr's shortest round-trip digits (Ryu) about ten times faster. The two
    differ only where repr takes exponent form (0 < |v| < 1e-4, |v| >= 1e16)
    and on non-finite values (orjson's ``null``); those values go through
    repr itself. Each record is one ``%`` fill of a template holding every
    row's ``step,agent,name,`` prefix.
    """
    import orjson  # here, not at module level: runs that write no CSV never load it

    names = sorted(coords)
    chunks = [b"step,agent,coord_name,value\n"] if header else []
    if not names:
        return b"".join(chunks)
    # \0 stands for the step; a name's % is escaped for the fill.
    template = b"".join(b"\0,%d,%b,%%b\n" % (agent, name.encode().replace(b"%", b"%%"))
                        for name in names for agent in range(coords[name].shape[1]))
    values = np.ascontiguousarray(
        np.concatenate([coords[name] for name in names], axis=1) if len(names) > 1 else coords[names[0]],
        dtype=np.float64)
    magnitude = np.abs(values)
    by_repr = ((magnitude < 1e-4) & (values != 0)) | ~(magnitude < 1e16)
    for r, step_index in enumerate(record_steps):
        literals = orjson.dumps(values[r], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
        for i in np.flatnonzero(by_repr[r]).tolist():
            literals[i] = repr(float(values[r, i])).encode()
        chunks.append(template.replace(b"\0", b"%d" % step_index) % tuple(literals))
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
        """The picked coordinates' values in one array; a view when one is picked."""
        return _pool(self.coords[k] for k in (self.coords if names is None else names))

    def csv_bytes(self, start: int = 0, stop: int | None = None) -> bytes:
        """``samples_csv`` of records start..stop; the header only when start is 0."""
        return samples_csv(self.record_steps[start:stop].tolist(),
                           {name: v[start:stop] for name, v in self.coords.items()},
                           header=start == 0)


def default_burn_in(n_agents: int) -> int:
    return 100 * n_agents


def default_thin(n_agents: int) -> int:
    return n_agents


def recorded_coordinates(pop: Population) -> dict[str, np.ndarray]:
    """Model-relevant marginal coordinates, copied out of the population."""
    return KERNELS[pop.spec.kind].coordinates(pop)


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

    Records fire at event counts burn_in + k*thin (k >= 1, up to steps)
    and are copied into one (n_records, N) array per coordinate, allocated
    before the first sweep; identical arguments reproduce identical samples
    byte for byte.
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
    coords = {name: np.empty((n_records, *values.shape)) for name, values in
              recorded_coordinates(pop).items()}
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
            for name, values in recorded_coordinates(pop).items():
                coords[name][next_record] = values
            next_record += 1
        if events >= next_audit:
            max_drift = max(max_drift, pop.check_invariants() / scale)
            next_audit += AUDIT_INTERVAL
    max_drift = max(max_drift, pop.check_invariants() / scale)

    meta = ChainMeta(
        burn_in=burn_in,
        thin=thin,
        total=float(total),
        events_run=events,
        rejected_events=pop.rejected_events,
        max_drift=max_drift,
    )
    return SampleSet(coords=coords, record_steps=record_steps, meta=meta)
