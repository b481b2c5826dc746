"""Conservative pairwise-exchange Monte Carlo kernels.

Every model is simulated on the constraint set picked out by its conserved
money-function total. There are two kernels: one slot kernel, with an
optional cap, for every kind but the credit market, and the credit ledger.

The slot kernel holds one flat array of K = ``ModelSpec.n_slots`` shifted
slots z = balance + d >= 0 in ``Population.cash``, where d is the slot's
overdraft (0 for cash and asset holdings):
- cash_only and overdraft: one slot per agent;
- multi_account: one slot per account, so the ``agent`` column of its
  ``samples.csv`` holds the account index;
- combined and restricted: N cash slots, then N account slots z = y + d;
- multi_asset: N·C slots, agent-major (agent i's class c is slot i·C + c).
The conserved value is sum(z) - sum(d), and the one move is the uniform
pair split: a matched pair of slots gets a uniform split of its sum. That
move leaves the uniform measure on the simplex of the K slots invariant, so
the stationary per-slot marginal is the exponential law with the model's
closed-form temperature. Shifting that law by the floor is the debt-limit
result of Dragulescu and Yakovenko (Eur. Phys. J. B 17, 723, 2000).

restricted's account slots are capped at z <= d (no positive balances).
The cap is data (``Population.caps``), not a move: the same split is
proposed, and a pair where a slot would pass its cap is rejected and keeps
its values. With a symmetric proposal and a uniform target this is
Metropolis, so the capped simplex's uniform law is stationary.

The credit market's two moves, the loan sale and the debt assumption,
reshuffle one pair's assets or liabilities with a compensating cash leg.
Each keeps every per-agent net position M_i = x_i + assets_i -
liabilities_i fixed, as well as total credit and the monetary base, so a
chain stays on one fibre: the set of states with its initial M_i. A trade
that would leave a negative cash balance is rejected.

``KERNELS`` holds one entry per simulable model kind: its initial
configurations, its moves, its recorded coordinates, its conserved value
and bounds, and the marginals fitted to its samples. Every move acts on
the pairs of a matching; ``run_chain`` advances whole sweeps of disjoint
pair events, which is fast enough for 1e7-event runs.

A sweep uses "shifted halves" matching over the K slots (the N agents, for
the credit market). Once per epoch of K // 2 sweeps, one random permutation
splits them into halves A and B of K // 2 each (for odd K the leftover one
sits out that epoch), and one call draws a shift r per sweep of the epoch;
the sweep pairs A[i] with B[(i + r) mod K // 2]. Every move resamples its
pair given the pair's total and is symmetric in its two roles, so any
pairing chosen independently of the state keeps the uniform law invariant,
and the shifts of one split already connect all slots.
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
        # the Generator's bounded-integer sampler would map ~0.14 MiB more code into memory.
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
    """Mutable coordinates of one model realization: the K shifted slots in
    ``cash``, or the credit market's cash, assets and liabilities per agent."""

    spec: ModelSpec
    conserved_total: float
    cash: np.ndarray | None = None
    caps: np.ndarray | None = None  # each slot's upper bound (restricted); None: no cap
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
        parts = [np.abs(a).sum() for a in (self.cash, self.assets) if a is not None]
        return max(abs(self.conserved_total), float(sum(parts)), 1.0)

    def check_invariants(self) -> float:
        """Raise ConservationError on a violated bound or conserved total;
        returns the absolute drift of the conserved total."""
        if self.cash is not None and self.cash.min() < 0:
            raise ConservationError(f"negative cash or slot: {self.cash.min()}")
        if self.caps is not None and (self.cash > self.caps).any():
            raise ConservationError(f"slot above its cap: {np.max(self.cash - self.caps)} past it")
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
    k, depth = pop.spec.n_slots, pop.spec.total_overdraft
    shifted = pop.conserved_total + depth
    if shifted < 0:
        raise DynamicsError(f"infeasible total {pop.conserved_total}: total + overdrafts {depth} < 0")
    pop.cash = np.full(k, shifted / k) if policy == "equal" else _simplex_sample(rng, k, shifted)


def _init_capped(pop: Population, policy: str, rng: np.random.Generator) -> None:
    """restricted's N cash slots, then N account slots z = y + d capped at d.

    "equal" puts every balance at total/N: cash when it is positive (accounts
    at zero), else the account. "uniform-random" draws each z uniformly in
    [0, d] and splits the rest of the total uniformly over the cash slots.
    """
    n, d, total = pop.n_agents, pop.spec.overdraft, pop.conserved_total
    if total <= -n * d:
        raise DynamicsError(f"infeasible total {total}: floor is {-n * d}")
    if policy == "equal":
        per_agent = total / n
        cash, accounts = np.full(n, max(per_agent, 0.0)), np.full(n, d + min(per_agent, 0.0))
    else:
        accounts = d * rng.random(n)
        cash_total = total + n * d - math.fsum(accounts)
        if cash_total < 0:
            raise DynamicsError(f"infeasible total {total} for the drawn account balances")
        cash = _simplex_sample(rng, n, cash_total)
    pop.cash = np.concatenate([cash, accounts])
    pop.caps = np.concatenate([np.full(n, np.inf), np.full(n, d)])


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
# Moves: each acts on the two halves of a matching, given as index arrays,
# and returns the number of rejected events.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    name: str
    apply: Callable[..., int]


def _slot_pair(pop: Population, rng: np.random.Generator, j, k) -> int:
    """Uniform split of each pair's sum; a pair whose split would pass a cap keeps its values."""
    s = pop.cash[j] + pop.cash[k]
    first = rng.random(s.size) * s
    rejected = 0
    if pop.caps is not None:
        accept = (first <= pop.caps[j]) & (s - first <= pop.caps[k])
        rejected = s.size - int(np.count_nonzero(accept))
        j, k, s, first = j[accept], k[accept], s[accept], first[accept]
    pop.cash[j] = first
    pop.cash[k] = s - first
    return rejected


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


_SLOT_PAIR = Move("pair_reshuffle", _slot_pair)
_LOAN_SALE = Move("loan_sale", partial(_credit_transfer, holdings="assets", cash_sign=-1.0))
_DEBT_ASSUMPTION = Move(
    "debt_assumption", partial(_credit_transfer, holdings="liabilities", cash_sign=1.0)
)


# ---------------------------------------------------------------------------
# The credit ledger's bounds beyond nonnegative cash and the conserved total
# ---------------------------------------------------------------------------


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
    return float(slots.mean()) * (spec.n_slots / spec.n_agents) - spec.total_overdraft / spec.n_agents


def _sum_of_means(spec: ModelSpec, coords: dict[str, np.ndarray]) -> float:
    """Money per agent when each coordinate holds one unshifted value per agent."""
    return float(sum(v.mean() for v in coords.values()))


@dataclass(frozen=True)
class Kernel:
    """Everything the chains and the runner need to know about one model kind."""

    init: Callable[[Population, str, np.random.Generator], None]
    moves: tuple[Move, ...]  # rotated one per sweep
    coordinates: Callable[[Population], dict[str, np.ndarray]]  # recorded copies
    conserved: Callable[[Population], float]
    bounds: Callable[[Population], None]
    marginals: Callable[[ModelSpec], list[tuple[str, list[str], float]]]  # (label, names, floor)
    # The recorded money per agent, averaged over the records.
    money_per_agent: Callable[[ModelSpec, dict[str, np.ndarray]], float]


def _slot_kernel(coordinates, marginals, money_per_agent=_sum_of_means, init=_init_slots) -> Kernel:
    """The shifted-slot kernel: the uniform pair split over ``Population.cash``."""
    return Kernel(
        init=init,
        moves=(_SLOT_PAIR,),
        coordinates=coordinates,
        conserved=lambda pop: math.fsum(pop.cash) - pop.spec.total_overdraft,
        bounds=lambda pop: None,  # 0 <= z <= cap, which check_invariants tests
        marginals=marginals,
        money_per_agent=money_per_agent,
    )


def _slots_as(name: str) -> Kernel:
    """The slot kernel recording the slots themselves as coordinate ``name``."""
    return _slot_kernel(lambda pop: {name: pop.cash.copy()},
                        lambda spec: [(name, [name], 0.0)], _slot_money)


def _cash_and_accounts(pop: Population) -> dict[str, np.ndarray]:
    """Cash x, and the account balances y = z - d: the agents' balances, unshifted."""
    n = pop.n_agents
    return {"x": pop.cash[:n].copy(), "y": pop.cash[n:] - pop.spec.overdraft}


def _asset_classes(pop: Population) -> dict[str, np.ndarray]:
    classes = pop.spec.asset_classes
    return {f"y_{c}": pop.cash[c::classes].copy() for c in range(classes)}


KERNELS: dict[ModelKind, Kernel] = {
    ModelKind.CASH_ONLY: _slots_as("x"),
    ModelKind.OVERDRAFT: _slots_as("z"),
    ModelKind.MULTI_ACCOUNT: _slots_as("z"),
    ModelKind.COMBINED: _slot_kernel(
        _cash_and_accounts, lambda spec: [("x", ["x"], 0.0), ("y", ["y"], -spec.overdraft)]),
    ModelKind.RESTRICTED: _slot_kernel(
        _cash_and_accounts, lambda spec: [("x", ["x"], 0.0)], init=_init_capped),
    ModelKind.CREDIT_MARKET: Kernel(
        init=_init_credit,
        moves=(_LOAN_SALE, _DEBT_ASSUMPTION),
        coordinates=lambda pop: {"assets": pop.assets.copy()},
        conserved=lambda pop: math.fsum(pop.assets),
        bounds=_credit_ledger,
        marginals=lambda spec: [("assets", ["assets"], 0.0)],
        money_per_agent=_sum_of_means,
    ),
    ModelKind.MULTI_ASSET: _slot_kernel(
        _asset_classes, lambda spec: [("y_pooled", [f"y_{c}" for c in range(spec.asset_classes)], 0.0)]),
}


def _moves(spec: ModelSpec) -> tuple[Move, ...]:
    if spec.n_agents < 2:
        raise DynamicsError("pair exchange needs at least 2 agents")
    return KERNELS[spec.kind].moves


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _sweep(pop: Population, rng: np.random.Generator, move: Move) -> int:
    """One sweep of disjoint pair events over the K slots; returns the number of events."""
    epoch = pop.pair_epoch
    if epoch is None or epoch.sweep == epoch.shifts.size:
        epoch = pop.pair_epoch = PairEpoch.draw(pop.spec.n_slots, rng)
    j, k = epoch.next_pairs()
    pop.rejected_events += move.apply(pop, rng, j, k)
    return j.size


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
