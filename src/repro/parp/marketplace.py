"""The server marketplace: discovery, selection, and mid-query failover.

The paper's Table I traffic analysis shows what dApps actually face: a
*market* of providers (Infura 47.5%, Alchemy 31.1%, …) with different price
schedules and different trustworthiness.  PARP makes switching providers
free of sign-up friction; this module supplies the missing client machinery:

* :class:`Marketplace` — a directory where staked full nodes advertise
  (address, endpoint, fee schedule, batch protocol version);
* :class:`MarketplaceClient` — wraps one :class:`LightClientSession` per
  provider, keeps ≥2 channels warm, and routes every query to the best
  server under a **reputation × price** score (the §VIII
  :class:`~repro.parp.reputation.ReputationLedger` finally wired into
  selection);
* **one scatter-race** over (legs × width) serves every query: serial
  ``request_call``/``query_batch`` is the 1×1 case, ``query_hedged`` 1×k
  and ``query_sharded`` N×k.  On an invalid response, a timeout, or a
  shed the client records the reputation event and re-issues the
  identical query to the next-ranked server; provable fraud escalates
  through a witness to the on-chain slash flow;
* **sharded serving**: advertisements carry an optional
  :class:`~repro.trie.shard.ShardRange`; selection becomes range-aware
  (a server is only ever asked for keys inside its advertised slice), and
  the verified per-shard multiproof results of a scatter are stitched back
  into request order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Optional, Sequence

from ..crypto.keys import Address, PrivateKey
from ..lightclient.checkpoint import Checkpoint, CheckpointSyncer
from ..lightclient.sync import HeaderSyncer
from ..net.futures import DEFAULT_TIMEOUT, ExponentialBackoff, wait_any
from ..trie.shard import ShardRange
from .client import (
    DEFAULT_GAS_PRICE,
    BatchItem,
    BatchOutcome,
    FraudDetected,
    InvalidResponse,
    LightClientSession,
    PendingRequest,
    RequestOutcome,
    ServerEndpoint,
    ServerOverloaded,
    SessionError,
)
from .constants import (
    BATCH_PROTOCOL_VERSION,
    DEFAULT_CHANNEL_BUDGET,
    DEFAULT_MIN_SESSIONS,
    DEFAULT_SELECTION_THRESHOLD,
    MAX_AMOUNT,
)
from .fraudproof import FraudProofError
from .messages import RpcCall
from .pricing import FeeSchedule
from .queries import decode_balance
from .sharding import shard_key_of_call
from .verification import ResponseClass, VerificationReport
from .reputation import (
    EVENT_CHANNEL_SETTLED,
    EVENT_EQUIVOCATION,
    EVENT_FRAUD_DETECTED,
    EVENT_FRAUD_SLASHED,
    EVENT_INVALID_RESPONSE,
    EVENT_OVERLOADED,
    EVENT_SERVED_OK,
    EVENT_TIMEOUT,
    EVENT_VERSION_MISMATCH,
    ReputationLedger,
)
from .states import LightClientState

__all__ = [
    "MarketplaceError",
    "NoServerForKey",
    "ServerAdvertisement",
    "Marketplace",
    "MarketplaceStats",
    "HedgeAttempt",
    "ShardLeg",
    "ScatterOutcome",
    "ShardScatterError",
    "MarketplaceClient",
]


class MarketplaceError(Exception):
    """No eligible server could (be made to) answer."""

    def __init__(self, message: str, attempts: Sequence[str] = ()) -> None:
        if attempts:
            message = f"{message}: " + "; ".join(attempts)
        super().__init__(message)
        self.attempts = tuple(attempts)


class NoServerForKey(MarketplaceError):
    """A state-keyed call's trie key is covered by no advertised server.

    Raised *before* any payment is signed: a silent empty result would be
    indistinguishable from a provable (and payable) "account absent"
    answer, so a shard-coverage hole in the directory must surface as a
    typed client-side error instead.
    """

    def __init__(self, key: bytes, method: str) -> None:
        super().__init__(
            f"no advertised server covers key {key.hex()[:16]}… ({method}): "
            "the directory has a shard coverage hole"
        )
        self.key = key
        self.method = method


@dataclass(frozen=True)
class ServerAdvertisement:
    """What a full node publishes to the directory.

    ``endpoint`` is how a client reaches the server — the in-process
    :class:`~repro.parp.server.FullNodeServer` itself, or a
    :class:`~repro.net.transport.SimEndpoint` over the simulated network.
    """

    address: Address
    endpoint: ServerEndpoint
    fee_schedule: FeeSchedule
    batch_version: Optional[int] = None
    name: str = ""
    #: the slice of the hashed-key space this server materializes;
    #: None advertises the whole state (a classic full-range server)
    shard: Optional[ShardRange] = None
    #: when the directory last accepted this ad (stamped by a clocked
    #: :class:`Marketplace` on advertise/republish); None in clockless
    #: directories, which never expire ads
    published_at: Optional[float] = None

    @classmethod
    def for_server(cls, server: Any, name: str = "",
                   endpoint: Optional[ServerEndpoint] = None,
                   ) -> "ServerAdvertisement":
        """Build an advertisement straight from a :class:`FullNodeServer`.

        An admission-controlled server advertises its *quoted* schedule —
        the base fees scaled by the current load multiplier — so surge
        pricing reaches clients through the directory, the same channel
        every other term of the offer travels.
        """
        quoted = getattr(server, "quoted_fee_schedule", None)
        return cls(
            address=server.address,
            endpoint=endpoint if endpoint is not None else server,
            fee_schedule=quoted() if callable(quoted) else server.fee_schedule,
            batch_version=server.batch_protocol_version(),
            name=name or getattr(getattr(server, "node", None), "name", ""),
            shard=getattr(server, "shard_range", None),
        )

    def covers(self, hashed_key: bytes) -> bool:
        """Whether this server's advertised slice can prove ``hashed_key``."""
        return self.shard is None or self.shard.covers(hashed_key)

    @cached_property
    def reference_price(self) -> int:
        """Sticker price of the standard call basket (see pricing).

        Cached: the advertisement is frozen, and selection reads this for
        every candidate on every routed query.
        """
        return self.fee_schedule.reference_price()

    @property
    def speaks_batch(self) -> bool:
        return self.batch_version == BATCH_PROTOCOL_VERSION

    @property
    def label(self) -> str:
        return self.name or self.address.hex()[:10]


class Marketplace:
    """The directory full nodes advertise in and clients select from.

    With a ``clock`` every accepted advertisement is stamped, and
    :meth:`sweep` expires servers that stopped refreshing — a directory
    full of dead endpoints would otherwise keep absorbing connect
    timeouts (and reputation penalties servers did nothing to earn).
    ``ad_ttl=None`` (the default) keeps ads fresh forever, preserving the
    clockless closed-world behavior tests rely on.
    """

    def __init__(self, clock=None, ad_ttl: Optional[float] = None) -> None:
        self._ads: dict[Address, ServerAdvertisement] = {}
        self._clock = clock
        self.ad_ttl = ad_ttl

    def _now(self) -> Optional[float]:
        return float(self._clock()) if self._clock is not None else None

    def advertise(self, ad: ServerAdvertisement) -> None:
        """Publish (or refresh) one server's advertisement."""
        now = self._now()
        if now is not None:
            ad = replace(ad, published_at=now)
        self._ads[ad.address] = ad

    def sweep(self, now: Optional[float] = None,
              ttl: Optional[float] = None) -> list[Address]:
        """Expire advertisements older than ``ttl`` (default: ``ad_ttl``).

        Returns the dropped addresses.  Unstamped ads (published through a
        clockless directory) and a ``ttl`` of None are both exempt — the
        sweep only ever removes servers that *stopped* doing something
        they demonstrably used to do (refresh via advertise/republish).
        """
        ttl = ttl if ttl is not None else self.ad_ttl
        if ttl is None:
            return []
        if now is None:
            now = self._now()
        if now is None:
            return []
        dropped = [address for address, ad in self._ads.items()
                   if ad.published_at is not None
                   and now - ad.published_at > ttl]
        for address in dropped:
            del self._ads[address]
        return dropped

    def advertise_server(self, server: Any, name: str = "",
                         endpoint: Optional[ServerEndpoint] = None,
                         ) -> ServerAdvertisement:
        ad = ServerAdvertisement.for_server(server, name=name, endpoint=endpoint)
        self.advertise(ad)
        return ad

    def republish(self, server: Any) -> Optional[ServerAdvertisement]:
        """Refresh a server's advertisement under its *current* load.

        Keeps the published name and endpoint (they do not change with
        load); only the priced terms — the quoted fee schedule — are
        re-read.  A server that never advertised here is left alone (None):
        republishing is a refresh, not a registration.
        """
        existing = self._ads.get(server.address)
        if existing is None:
            return None
        ad = ServerAdvertisement.for_server(
            server, name=existing.name, endpoint=existing.endpoint,
        )
        self.advertise(ad)
        return ad

    def withdraw(self, address: Address) -> None:
        self._ads.pop(address, None)

    def get(self, address: Address) -> Optional[ServerAdvertisement]:
        return self._ads.get(address)

    def advertisements(self) -> list[ServerAdvertisement]:
        return list(self._ads.values())

    def covering(self, hashed_key: bytes) -> list[ServerAdvertisement]:
        """Every advertisement whose shard range covers ``hashed_key``
        (regardless of reputation — this is the *directory* view that
        coverage checks gate on)."""
        return [ad for ad in self._ads.values() if ad.covers(hashed_key)]

    def __len__(self) -> int:
        return len(self._ads)

    def __contains__(self, address: Address) -> bool:
        return address in self._ads


@dataclass
class MarketplaceStats:
    """What the routing layer did on the client's behalf."""

    queries: int = 0              # queries answered (after any failover)
    failovers: int = 0            # re-issues to another server
    sessions_opened: int = 0
    frauds_detected: int = 0
    frauds_slashed: int = 0
    version_mismatches: int = 0
    hedged_queries: int = 0       # query_hedged races run
    hedge_launches: int = 0       # batches issued across all races
    hedges_cancelled: int = 0     # losing in-flight requests cancelled
    sharded_queries: int = 0      # query_sharded scatter-gathers run
    scatter_legs: int = 0         # shard legs across all scatters
    soft_failovers: int = 0       # Overloaded sheds routed around (no slash)
    retry_storms_avoided: int = 0  # waits honoring a server's retry_after


@dataclass
class HedgeAttempt:
    """One server's leg of a hedged race (see ``MarketplaceClient.last_hedge``).

    ``outcome`` ∈ {"in-flight", "won", "cancelled", "unused", "timeout",
    "invalid", "fraud", "overloaded", "session-error"} — "cancelled" means the request was
    provably still in flight when the winner's response verified; "unused"
    means the reply had already arrived but was never read.
    """

    address: Address
    label: str
    pending: PendingRequest
    outcome: str = "in-flight"
    detail: str = ""


@dataclass
class ShardLeg:
    """One shard's slice of a scatter-gathered batch."""

    index: int
    calls: tuple[RpcCall, ...]
    positions: tuple[int, ...]    # where each call sits in the original batch
    keys: tuple[bytes, ...]       # hashed state keys routed to this leg
    outcome: Optional[BatchOutcome] = None
    winner: Optional[Address] = None
    error: str = ""
    cost: int = 0                 # channel-budget increment this leg consumed
    attempts: int = 0             # launches (hedges + failovers) it took

    @property
    def ok(self) -> bool:
        return self.outcome is not None


@dataclass(frozen=True)
class ScatterOutcome:
    """A scatter-gathered batch stitched back into request order.

    Every item came out of a §V-D-verified per-shard multiproof (each
    shard's slice proves against the *global* root, so the checks are the
    single-node ones, unchanged).  Unlike :class:`BatchOutcome`,
    ``amount_paid`` is a **sum of increments** across the winning legs —
    the legs pay on different servers' channels, so there is no single
    cumulative channel amount to report.
    """

    items: tuple[BatchItem, ...]
    report: VerificationReport
    amount_paid: int
    legs: tuple[ShardLeg, ...]
    batched: bool = True

    def __len__(self) -> int:
        return len(self.items)


class ShardScatterError(MarketplaceError):
    """Some scatter legs failed after exhausting their shard's servers.

    A partial failure is *typed*, never a silent partial result: winner
    legs' payments were already acked when their responses verified, and
    ``legs`` keeps the full per-shard picture (``failed_legs`` for just
    the casualties) so the caller can salvage what landed or retry the
    missing shards alone.
    """

    def __init__(self, message: str, legs: Sequence[ShardLeg],
                 attempts: Sequence[str] = ()) -> None:
        super().__init__(message, attempts)
        self.legs = tuple(legs)

    @property
    def failed_legs(self) -> tuple[ShardLeg, ...]:
        return tuple(leg for leg in self.legs if not leg.ok)


@dataclass(eq=False)
class _Launch:
    """One in-flight issue of a race leg to one server."""

    ad: ServerAdvertisement
    session: LightClientSession
    pending: PendingRequest
    deadline: Optional[float]     # sim-clock instant; None for in-process
    cost: int                     # what issuing it added to its channel
    attempt: Optional[HedgeAttempt]   # None on the serial (1×1) path


@dataclass
class _Race:
    """One leg of a scatter-race: its candidates and in-flight launches."""

    leg: ShardLeg
    tip: int
    batch: bool                   # batch wire (else the single-request one)
    tried: set[Address] = field(default_factory=set)
    #: advertised batch speakers whose probe disagreed (per-key pool)
    skipped: list[ServerAdvertisement] = field(default_factory=list)
    deferred: dict[Address, int] = field(default_factory=dict)  # sheds
    active: list[_Launch] = field(default_factory=list)
    attempts: list[str] = field(default_factory=list)
    result: Any = None            # the winner's outcome, as collected


#: consecutive transport timeouts before a server is demoted to last resort.
COLD_AFTER = 2

#: how many times one query leg may *defer* back to an overloaded server
#: (wait out its retry_after and re-issue) before giving up on it.
MAX_OVERLOAD_DEFERS = 2


class MarketplaceClient:
    """A light client that shops the marketplace instead of trusting one node.

    Selection score: ``reputation(score) × (cheapest reference price /
    server's reference price)`` — trust weighted by how competitively the
    server prices the standard call basket.  Servers that are banned or
    score below ``selection_threshold`` are never used.
    """

    def __init__(self, key: PrivateKey, marketplace: Marketplace,
                 reputation: Optional[ReputationLedger] = None,
                 witness: Optional[Any] = None,
                 headers: Optional[HeaderSyncer] = None,
                 checkpoint: Optional[Checkpoint] = None,
                 clock=None,
                 budget: int = DEFAULT_CHANNEL_BUDGET,
                 min_sessions: int = DEFAULT_MIN_SESSIONS,
                 selection_threshold: float = DEFAULT_SELECTION_THRESHOLD,
                 gas_price: int = DEFAULT_GAS_PRICE) -> None:
        if not 0 < budget <= MAX_AMOUNT:
            # a bad budget would fail identically against every server; catch
            # it here so no server is blamed (and banned) for a client bug
            raise MarketplaceError(f"channel budget {budget} out of range")
        self.key = key
        self.marketplace = marketplace
        self.reputation = reputation if reputation is not None else ReputationLedger()
        self.witness = witness              # anything with .submit(package)
        self.budget = budget
        self.min_sessions = max(1, min_sessions)
        self.selection_threshold = selection_threshold
        self.gas_price = gas_price
        self.sessions: dict[Address, LightClientSession] = {}
        #: sessions dropped after misbehavior, kept so their channels' α and
        #: acked amounts survive for settlement (escrow is money)
        self.retired: list[tuple[Address, LightClientSession]] = []
        self.stats = MarketplaceStats()
        #: per-leg record of the most recent hedged race (diagnostics/tests)
        self.last_hedge: list[HedgeAttempt] = []
        #: the most recent scatter-gather result (diagnostics/tests)
        self.last_scatter: Optional[ScatterOutcome] = None
        self._headers = headers
        self._checkpoint = checkpoint
        self._clock = clock
        #: gossip attachments (see :meth:`join_gossip`); None until joined
        self.gossip = None
        self.head_gossip = None
        self.rep_share = None
        self._ticks = 0.0
        self._mismatch_noted: set[Address] = set()
        #: consecutive transport failures per server; at COLD_AFTER the
        #: server drops to the back of the ranking so retries stop signing
        #: payments into a channel nobody is answering
        self._cold: dict[Address, int] = {}
        #: per-server backoff deadlines (clock instants) set by ``Overloaded``
        #: replies: the server's own retry_after, escalated by the shared
        #: jittered exponential policy on consecutive sheds.  A backed-off
        #: server sinks in the ranking, and re-issuing to it *waits out* the
        #: deadline first — honoring retry_after is what prevents the
        #: synchronized retry storm.
        self._backoff: dict[Address, float] = {}
        self._overload_streak: dict[Address, int] = {}
        self._backoff_policy = ExponentialBackoff(
            base=0.05, factor=2.0, cap=5.0, jitter=0.5,
            seed=int(self.address.hex()[:8], 16),
        )

    @property
    def address(self) -> Address:
        return self.key.address

    @property
    def headers(self) -> HeaderSyncer:
        """One shared header chain for all sessions (headers are free and
        multi-source, so every advertised endpoint is a source).

        With a ``checkpoint`` the syncer is a
        :class:`~repro.lightclient.checkpoint.CheckpointSyncer`: it anchors
        at the trusted header (quorum-cross-checked Bootstrap) and fetches
        only the headers from the checkpoint forward — onboarding cost is
        O(distance from checkpoint), not O(chain length).
        """
        if self._headers is None:
            ads = self.marketplace.advertisements()
            if not ads:
                raise MarketplaceError("cannot sync headers: empty marketplace")
            endpoints = [ad.endpoint for ad in ads]
            if self._checkpoint is not None:
                self._headers = CheckpointSyncer(endpoints, self._checkpoint)
            else:
                self._headers = HeaderSyncer(endpoints)
        return self._headers

    def _now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        self._ticks += 1.0          # deterministic logical time
        return self._ticks

    # ------------------------------------------------------------------ #
    # Gossip (push heads + shared reputation)
    # ------------------------------------------------------------------ #

    def join_gossip(self, gossip, stake_of=None,
                    staleness: Optional[float] = None):
        """Attach this client to a gossip node: push-mode header sync on
        ``new_heads`` plus shared reputation on ``reputation``.

        ``stake_of`` maps an address to its deposit-registry stake; it
        gates head announcements (only staked identities may announce)
        and weighs foreign reputation events.  ``staleness`` is how long
        the client trusts the push feed before falling back to pull
        polling.  Returns ``(head_gossip, rep_share)``.
        """
        from ..gossip.heads import HeadGossip
        from ..gossip.repshare import ReputationShare
        clock = gossip.network.clock.now
        if staleness is not None:
            self.headers.enable_push(clock, staleness=staleness)
        else:
            self.headers.enable_push(clock)
        self.gossip = gossip
        self.head_gossip = HeadGossip(
            gossip, self.headers, stake_of=stake_of,
            reputation=self.reputation, witness=self.witness,
            reporter=self.address,
            # a caught equivocator is first-hand news worth sharing
            on_equivocation=lambda proof: self._share_event(
                proof.announcer, EVENT_EQUIVOCATION,
                proof.evidence_digest()),
        )
        self.rep_share = ReputationShare(
            gossip, self.reputation, self.key, stake_of=stake_of,
        )
        return self.head_gossip, self.rep_share

    def _share_event(self, subject: Address, kind: str,
                     detail: bytes = b"") -> None:
        """Gossip a first-hand hard event (no-op before :meth:`join_gossip`;
        non-gossipable kinds are kept local by the share layer)."""
        if self.rep_share is None:
            return
        self.rep_share.publish(subject, kind,
                               subject.to_bytes() + kind.encode("utf-8")
                               + detail)

    # ------------------------------------------------------------------ #
    # Overload backoff (honoring a server's signed retry_after)
    # ------------------------------------------------------------------ #

    def _in_backoff(self, address: Address,
                    now: Optional[float] = None) -> bool:
        """Whether a server's retry_after window is still open (expired
        deadlines are dropped on the way out)."""
        deadline = self._backoff.get(address)
        if deadline is None:
            return False
        if now is None:
            now = self._now()
        if now >= deadline:
            self._backoff.pop(address, None)
            return False
        return True

    def _note_overload(self, address: Address, retry_after: float) -> None:
        """Park a shed server behind a deadline: its own (jittered, signed)
        ``retry_after``, escalated by the shared exponential-backoff policy
        as consecutive sheds accumulate."""
        streak = self._overload_streak.get(address, 0) + 1
        self._overload_streak[address] = streak
        wait = max(float(retry_after), self._backoff_policy.delay(streak))
        self._backoff[address] = self._now() + wait

    def _clear_backoff(self, address: Address) -> None:
        """A served response proves recovery: forget the overload history."""
        self._backoff.pop(address, None)
        self._overload_streak.pop(address, None)

    def _find_network(self):
        """Any simulated network reachable through our endpoints (to drive
        time forward while waiting out a backoff deadline)."""
        for session in self.sessions.values():
            network = getattr(session.endpoint, "network", None)
            if network is not None:
                return network
        for ad in self.marketplace.advertisements():
            network = getattr(ad.endpoint, "network", None)
            if network is not None:
                return network
        return None

    def _await_backoff(self, address: Address) -> None:
        """Wait out a shed server's backoff deadline before re-issuing.

        This is the no-retry-storm guarantee: instead of re-issuing to a
        shed server immediately (arriving in the same saturated window as
        everyone else's retry), the client sits out the server's own
        jittered ``retry_after``.  Under simulated time the network runs
        until the deadline (other in-flight legs keep progressing); without
        a drivable clock the entry is simply released, so routing always
        makes progress.
        """
        deadline = self._backoff.pop(address)
        self.stats.retry_storms_avoided += 1
        network = self._find_network()
        if network is not None and self._clock is not None:
            network.run_until(deadline)

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #

    def trust(self, address: Address, now: Optional[float] = None) -> float:
        """The ledger score with a newcomer floor for positive histories.

        A server with net-positive evidence must never rank below a total
        stranger (the raw ledger score dips under ``newcomer_score`` until
        ~``saturation`` successes accumulate); negative evidence, however,
        is taken at face value — that is what collapses below the selection
        threshold and gets a server routed around.
        """
        if now is None:
            now = self._now()
        score = self.reputation.score(address, now)
        if (self.reputation.events_of(address)
                and self.reputation.raw_score(address, now) > 0.0):
            return max(score, self.reputation.newcomer_score)
        return score

    def selection_score(self, ad: ServerAdvertisement,
                        now: Optional[float] = None) -> float:
        """Reputation-weighted, price-aware score in [0, 1]."""
        if now is None:
            now = self._now()
        if self.reputation.is_banned(ad.address, now):
            return 0.0
        ads = self.marketplace.advertisements() or [ad]
        cheapest = min(max(1, a.reference_price) for a in ads)
        return self.trust(ad.address, now) * (cheapest / max(1, ad.reference_price))

    def eligible(self, now: Optional[float] = None,
                 keys: Sequence[bytes] = ()) -> list[ServerAdvertisement]:
        """Advertisements ranked best-first by the combined score.

        Eligibility gates on *trust alone* — banned servers and those whose
        reputation score fell below ``selection_threshold`` are dropped; the
        price factor then only decides the order among trusted servers (a
        bargain price must never buy back a burned reputation).  When
        ``keys`` is given, only servers whose advertised shard range covers
        *every* key qualify — a shard server is never even a candidate for
        keys outside its slice.
        """
        if now is None:
            now = self._now()
        ads = self.marketplace.advertisements()
        cheapest = min((max(1, a.reference_price) for a in ads), default=1)
        keep = []
        for ad in ads:
            if self.reputation.is_banned(ad.address, now):
                continue
            if keys and not all(ad.covers(key) for key in keys):
                continue
            trust = self.trust(ad.address, now)
            if trust < self.selection_threshold:
                continue
            keep.append((trust * (cheapest / max(1, ad.reference_price)), ad))
        # cold (repeatedly unreachable) servers sink to last resort, then
        # backed-off (recently shedding) ones — re-ranking on overload;
        # among the rest: score, then cheaper, then demonstrated history
        # over a stranger, then a stable label order so routing is
        # deterministic.
        keep.sort(key=lambda pair: (
            self._cold.get(pair[1].address, 0) >= COLD_AFTER,
            self._in_backoff(pair[1].address, now),
            -pair[0], pair[1].reference_price,
            -self.reputation.raw_score(pair[1].address, now), pair[1].label,
        ))
        return [ad for _, ad in keep]

    # ------------------------------------------------------------------ #
    # Channel management
    # ------------------------------------------------------------------ #

    def bonded_sessions(self) -> dict[Address, LightClientSession]:
        return {a: s for a, s in self.sessions.items()
                if s.state is LightClientState.BONDED}

    def connect(self, min_sessions: Optional[int] = None) -> list[Address]:
        """Open channels to the ``min_sessions`` best-ranked servers.

        Servers that fail to connect get a timeout event and are skipped.
        Raises :class:`MarketplaceError` when not even one channel opens.
        """
        want = min_sessions if min_sessions is not None else self.min_sessions
        attempts: list[str] = []
        for ad in self.eligible():
            if len(self.bonded_sessions()) >= want:
                break
            self._session_for(ad, attempts)
        opened = self.bonded_sessions()
        if not opened:
            raise MarketplaceError("could not bond to any server", attempts)
        return list(opened)

    def _open_session(self, ad: ServerAdvertisement) -> LightClientSession:
        session = LightClientSession(
            self.key, ad.endpoint, self.headers,
            fee_schedule=ad.fee_schedule, gas_price=self.gas_price,
            clock=self._clock, batch_version=ad.batch_version,
        )
        session.connect(budget=self.budget)
        self.sessions[ad.address] = session
        self.stats.sessions_opened += 1
        return session

    def _session_for(self, ad: ServerAdvertisement,
                     attempts: list[str]) -> Optional[LightClientSession]:
        """A bonded session to ``ad`` (opened if need be), or None after
        logging why not.  A SessionError is a client-side lifecycle/budget
        problem — the server did not misbehave, so no reputation penalty;
        any other connect failure is the server's timeout."""
        session = self.sessions.get(ad.address)
        if session is not None and session.state is LightClientState.BONDED:
            return session
        try:
            return self._open_session(ad)
        except Exception as exc:  # noqa: BLE001 — any connect failure ⇒ next server
            if not isinstance(exc, SessionError):
                self.reputation.record(ad.address, EVENT_TIMEOUT, self._now())
            attempts.append(f"{ad.label}: connect: {exc}")
            return None

    def _retire_session(self, address: Address) -> None:
        """Stop using a session but keep it: its channel's α and acked
        amount are needed to settle the escrowed budget later."""
        session = self.sessions.pop(address, None)
        if session is not None:
            self.retired.append((address, session))

    def _replenish(self) -> None:
        """Best-effort: restore the warm-standby invariant after a drop."""
        try:
            if len(self.bonded_sessions()) < self.min_sessions:
                self.connect()
        except MarketplaceError:
            pass  # a later query will surface the exhaustion with context

    # ------------------------------------------------------------------ #
    # The routed request path: one scatter-race over (legs × width)
    # ------------------------------------------------------------------ #

    def request(self, method: str, *params: Any, tip: int = 0) -> RequestOutcome:
        """One verified query, served by whichever server survives routing."""
        call = RpcCall.create(method, *params)
        return self.request_call(call, tip=tip)

    def request_call(self, call: RpcCall, tip: int = 0) -> RequestOutcome:
        """The serial path for one call: a 1×1 race on the single wire."""
        return self._race_one((call,), tip, call.method, batch=False).result

    def query_batch(self, calls: Sequence[RpcCall], tip: int = 0) -> BatchOutcome:
        """A batched query, routed to batch-speaking servers first.

        The whole batch goes to *one* server, so every state-keyed call
        must fall inside a single server's advertised range; a batch that
        spans shards needs :meth:`query_sharded` instead.
        """
        calls = tuple(calls)
        return self._race_one(calls, tip, f"batch[{len(calls)}]",
                              batch=True).result

    def query_hedged(self, calls: Sequence[RpcCall], fanout: int = 2,
                     tip: int = 0) -> BatchOutcome:
        """Issue the same batch on the ``fanout`` best-ranked sessions and
        accept the **first response that survives §V-D verification**.

        The 1×k case of the scatter-race.  Every launch is a signed, paid
        request on that server's own channel; only the winner's payment is
        ever acked (losers are cancelled in flight, and their unacked
        amounts are not volunteered at closure).  A failed launch leaves
        its reputation events behind exactly like serial failover and is
        replaced by the next-ranked server, so the race keeps its width
        until the marketplace runs out of candidates.

        A single-call query rides the single-request wire path (its fraud
        packages are what the on-chain FDM can decode, so a fast-but-
        malicious loser is actually *slashed*, not just dropped); multi-call
        queries ride the batch path, so only batch speakers join those
        races — and when none is left, the query is served per key on a
        passed-over server, as :meth:`query_batch` would.
        """
        calls = tuple(calls)
        if not calls:
            raise MarketplaceError("a hedged query needs at least one call")
        fanout = max(1, int(fanout))
        describe = f"hedged batch[{len(calls)}]×{fanout}"
        return self._race_one(calls, tip, describe, batch=len(calls) > 1,
                              width=fanout, hedged=True).leg.outcome

    def _race_one(self, calls: tuple[RpcCall, ...], tip: int, describe: str,
                  batch: bool, width: int = 1, hedged: bool = False) -> _Race:
        """Race one leg carrying every call; raise if nobody wins it."""
        leg = ShardLeg(index=0, calls=calls,
                       positions=tuple(range(len(calls))),
                       keys=self._require_coverage(calls))
        race = _Race(leg=leg, tip=tip, batch=batch)
        if hedged:
            self.last_hedge = []
        self._scatter_race([race], width, hedged)
        if hedged and self.last_hedge:  # a race ran, not just the fallback
            self.stats.hedged_queries += 1
        if race.result is None:
            raise self._exhausted(race, describe)
        return race

    def query_sharded(self, calls: Sequence[RpcCall], fanout: int = 1,
                      tip: int = 0) -> ScatterOutcome:
        """Scatter a batch across shard legs, gather verified multiproofs.

        The N×k case of the scatter-race.  The batch is split by the
        directory's shard map (unsharded calls ride with the first leg),
        and every leg races independently among the servers of *its* shard
        with ``fanout`` launches in flight.  Legs resolve in completion
        order (no head-of-line blocking on the slowest shard), and the
        per-shard results — each one a §V-D verified multiproof against the
        *global* state root — are stitched back into request order.

        A shard server is never asked for (and could not prove) keys
        outside its slice; a leg whose shard has no live server left ends
        the query with :class:`ShardScatterError` after the other legs'
        winners were paid.  A directory with no shard servers degenerates
        to one leg — the plain hedged wire path.
        """
        calls = tuple(calls)
        if not calls:
            raise MarketplaceError("a sharded query needs at least one call")
        fanout = max(1, int(fanout))
        legs = self._split_by_shard(calls)
        self.stats.sharded_queries += 1
        self.stats.scatter_legs += len(legs)
        self.last_hedge = []
        # the tip (priority fee) rides on the first leg only: one scatter
        # is one query, not len(legs) separately-tipped ones
        races = [_Race(leg=leg, tip=tip if leg.index == 0 else 0,
                       batch=len(leg.calls) > 1) for leg in legs]
        self._scatter_race(races, fanout, hedged=True)

        failed = [race for race in races if not race.leg.ok]
        if failed:
            # winners' payments were acked when their responses verified;
            # only the missing shards are reported, never silently dropped
            for race in failed:
                race.leg.error = str(self._exhausted(
                    race, f"shard leg[{race.leg.index}]"))
            raise ShardScatterError(
                f"sharded batch[{len(calls)}]: {len(failed)} of "
                f"{len(legs)} shard legs failed",
                legs, [line for race in races for line in race.attempts])

        items: list[Optional[BatchItem]] = [None] * len(calls)
        for leg in legs:
            for pos, item in zip(leg.positions, leg.outcome.items):
                items[pos] = item
        outcome = ScatterOutcome(
            items=tuple(items),
            # every winning leg verified VALID — a losing classification
            # never wins a leg — so the stitched result is too
            report=VerificationReport(ResponseClass.VALID, "all-checks"),
            amount_paid=sum(leg.cost for leg in legs),
            legs=tuple(legs),
        )
        self.last_scatter = outcome
        return outcome

    def _split_by_shard(self, calls: tuple[RpcCall, ...]) -> list[ShardLeg]:
        """Partition a batch into per-shard legs.

        Grouping follows the *directory*: each state-keyed call joins the
        shard range of the best-ranked advertisement covering its key (a
        full-range server groups the keys it wins into one leg), so every
        leg is answerable by a single server.  Unsharded calls ride with
        the first leg.  Raises :class:`NoServerForKey` when some key is
        covered by no advertised server at all.
        """
        ranked = self.eligible()
        groups: dict[tuple, list[int]] = {}
        keys_of: dict[tuple, list[bytes]] = {}
        unsharded: list[int] = []
        for i, call in enumerate(calls):
            key = shard_key_of_call(call)
            if key is None:
                unsharded.append(i)
                continue
            covering = [ad for ad in ranked if ad.covers(key)]
            if not covering:
                # no *eligible* server, but an advertised one may still
                # exist — group under its range and let the leg's race
                # surface the failure with full context
                covering = self.marketplace.covering(key)
            if not covering:
                raise NoServerForKey(key, call.method)
            shard = covering[0].shard
            gkey = ("full",) if shard is None else ("shard", shard.to_tuple())
            groups.setdefault(gkey, []).append(i)
            keys_of.setdefault(gkey, []).append(key)
        if not groups:
            groups[("full",)] = []
            keys_of[("full",)] = []
        ordered = list(groups)
        first = ordered[0]
        groups[first].extend(unsharded)
        groups[first].sort()
        legs = []
        for index, gkey in enumerate(ordered):
            positions = tuple(groups[gkey])
            legs.append(ShardLeg(
                index=index,
                calls=tuple(calls[p] for p in positions),
                positions=positions,
                keys=tuple(keys_of[gkey]),
            ))
        return legs

    def _require_coverage(self, calls: Sequence[RpcCall]) -> tuple[bytes, ...]:
        """The hashed keys routing ``calls``, with the coverage gate: a key
        no advertised server covers raises :class:`NoServerForKey` *before*
        any payment is signed."""
        keys = []
        for call in calls:
            key = shard_key_of_call(call)
            if key is None:
                continue
            if not self.marketplace.covering(key):
                raise NoServerForKey(key, call.method)
            keys.append(key)
        return tuple(keys)

    def _scatter_race(self, races: list[_Race], width: int,
                      hedged: bool) -> None:
        """Race every leg to its first response that survives §V-D.

        Each leg keeps up to ``width`` paid launches in flight on distinct
        servers; a failed launch is penalized and replaced by the leg's
        next-ranked candidate.  Serial queries (``hedged=False``, 1×1)
        collect their one launch as soon as it is issued, blocking on its
        own synchrony bound, and leave no :class:`HedgeAttempt`; hedged
        legs resolve in completion order, timed out at their deadlines.
        """
        for race in races:
            for _ in range(width):
                if not self._launch(race, hedged):
                    break
        while True:
            active = [launch for race in races for launch in race.active]
            if not active:
                return
            now, stalled = self._race_wait(active) if hedged else (None, False)
            for race in races:
                for launch in list(race.active):
                    if launch not in race.active:
                        continue   # cancelled as a loser when its leg won
                    done = launch.pending.reply.done()
                    expired = (now is not None and launch.deadline is not None
                               and now >= launch.deadline)
                    if hedged and not (done or expired or stalled):
                        continue
                    race.active.remove(launch)
                    if hedged and not done:
                        # the synchrony bound passed with the reply still in
                        # flight: cancel and collect it, so the failover
                        # policy hands out the transport-timeout verdict
                        launch.pending.cancel()
                    self._settle(race, launch, hedged)

    def _launch(self, race: _Race, hedged: bool) -> bool:
        """Put the leg in flight on its next-ranked untried server.

        A multi-call leg launches only on advertised batch speakers.  A
        speaker whose free probe says otherwise lied in its ad — that is
        what the version-mismatch event is for — and is passed over.  Once
        no speaker is left and nothing of the leg is in flight, the leg is
        served per key instead: on the passed-over liars in rank order
        (the mismatch may cost them eligibility, not the right to serve
        what they can), then on the best-ranked non-speaker, where
        ``query_batch`` degrades to single requests with identical §V-D
        checks.  Returns whether a launch is now in flight.
        """
        leg = race.leg
        while True:
            ad = self._next_candidate(race.tried, race.batch, keys=leg.keys)
            per_key = ad is None or (race.batch and not ad.speaks_batch)
            if per_key:
                if race.active or not race.batch:
                    return False
                ad = race.skipped.pop(0) if race.skipped else ad
                if ad is None:
                    return False
            race.tried.add(ad.address)
            if self._in_backoff(ad.address):
                # honor the server's signed retry_after instead of joining
                # the synchronized herd (sim time keeps other launches moving)
                self._await_backoff(ad.address)
            session = self._session_for(ad, race.attempts)
            if session is None:
                self.stats.failovers += 1
                continue
            spent_before = session.channel.spent if session.channel else 0
            if per_key:
                leg.attempts += 1
                try:
                    outcome = session.query_batch(leg.calls, tip=race.tip)
                except SessionError as exc:
                    self._penalize_failure(race, ad, exc)
                    continue
                self._win(race, ad, outcome, outcome.amount_paid - spent_before)
                return False
            if race.batch and not session.batch_supported():
                self._note_version_mismatch(ad)
                race.attempts.append(f"{ad.label}: no batch support")
                race.skipped.append(ad)
                continue
            try:
                pending = (session.begin_batch(leg.calls, tip=race.tip)
                           if race.batch else
                           session.begin_request(leg.calls[0], tip=race.tip))
            except SessionError as exc:
                # local condition (typically an exhausted channel budget)
                self._penalize_failure(race, ad, exc)
                continue
            attempt = None
            if hedged:
                attempt = HedgeAttempt(address=ad.address, label=ad.label,
                                       pending=pending)
                self.last_hedge.append(attempt)
                self.stats.hedge_launches += 1
            race.active.append(_Launch(
                ad=ad, session=session, pending=pending,
                deadline=self._deadline(session),
                cost=pending.request.a - spent_before, attempt=attempt,
            ))
            leg.attempts += 1
            return True

    def _deadline(self, session: LightClientSession) -> Optional[float]:
        """When a launch's synchrony bound expires (None for in-process
        endpoints, whose replies resolve at submit time)."""
        network = getattr(session.endpoint, "network", None)
        if network is None:
            return None
        timeout = getattr(session.endpoint, "timeout", None)
        return network.clock.now() + (DEFAULT_TIMEOUT if timeout is None
                                      else timeout)

    def _race_wait(self, active: list[_Launch],
                   ) -> tuple[Optional[float], bool]:
        """Drive the event loop until the first launch resolves (or the
        nearest synchrony bound passes); returns ``(now, stalled)``.

        ``now`` is the first networked launch's sim clock (None without
        one; keep a race on one network when timeout precision matters).
        ``stalled`` flags a clockless race that a full default-bound wait
        could not resolve — timing it out keeps it from spinning forever.
        """
        replies = [launch.pending.reply for launch in active]
        networks = (getattr(launch.session.endpoint, "network", None)
                    for launch in active)
        clock = next((n.clock for n in networks if n is not None), None)
        if not any(reply.done() for reply in replies):
            if clock is None:
                wait_any(replies)
            else:
                deadlines = [launch.deadline for launch in active
                             if launch.deadline is not None]
                horizon = (min(deadlines) - clock.now()) if deadlines else None
                if horizon is None or horizon > 0:   # else: overdue launch
                    wait_any(replies, timeout=horizon)
        now = clock.now() if clock is not None else None
        return now, now is None and not any(r.done() for r in replies)

    def _settle(self, race: _Race, launch: _Launch, hedged: bool) -> None:
        """Collect one resolved launch: a verified response wins the leg,
        anything else is penalized and replaced."""
        try:
            outcome = launch.session.collect(launch.pending)
        except SessionError as exc:
            self._penalize_failure(race, launch.ad, exc, launch.attempt)
            self._launch(race, hedged)
            return
        if launch.attempt is not None:
            launch.attempt.outcome = "won"
        self._win(race, launch.ad, outcome, launch.cost)

    def _win(self, race: _Race, ad: ServerAdvertisement, outcome: Any,
             cost: int) -> None:
        """Settle a leg: cancel its in-flight losers, credit the winner."""
        for loser in race.active:
            if loser.pending.cancel():
                loser.attempt.outcome = "cancelled"
                self.stats.hedges_cancelled += 1
            else:
                loser.attempt.outcome = "unused"  # arrived, never read
        race.active.clear()
        self._cold.pop(ad.address, None)
        self._clear_backoff(ad.address)
        self.reputation.record(ad.address, EVENT_SERVED_OK, self._now())
        self.stats.queries += 1
        race.result = outcome
        leg = race.leg
        leg.winner, leg.cost = ad.address, cost
        if isinstance(outcome, RequestOutcome):   # the single-request wire
            outcome = BatchOutcome.per_key([outcome], outcome.report)
        leg.outcome = outcome

    @staticmethod
    def _exhausted(race: _Race, describe: str) -> MarketplaceError:
        """The typed error for a leg every eligible server failed."""
        keys = race.leg.keys
        if keys and not race.attempts and not race.tried:
            return MarketplaceError(
                f"{describe}: no single eligible server covers all "
                f"{len(keys)} state keys — scatter the batch via "
                "query_sharded")
        return MarketplaceError(f"{describe}: every eligible server failed",
                                race.attempts)

    def _penalize_failure(self, race: _Race, ad: ServerAdvertisement,
                          exc: SessionError,
                          attempt: Optional[HedgeAttempt] = None) -> None:
        """The one failover policy: record reputation and stats for a failed
        issue, and log it on the leg (and its hedge attempt, if any).

        An ``Overloaded`` shed *defers* instead of burning the server for
        the leg: up to :data:`MAX_OVERLOAD_DEFERS` times per leg it leaves
        ``tried`` again, so a later launch can come back to it once its
        retry_after has been waited out.
        """
        if isinstance(exc, FraudDetected):
            self._on_fraud(ad, exc)
            self._replenish()
            tag, line = "fraud", f"{ad.label}: fraud [{exc.report.check}]"
        elif isinstance(exc, InvalidResponse):
            if exc.report.check == "transport":
                kind = EVENT_TIMEOUT       # silent/dead/partitioned server
                self._cold[ad.address] = self._cold.get(ad.address, 0) + 1
                tag = "timeout"
            else:
                kind = EVENT_INVALID_RESPONSE
                self._retire_session(ad.address)  # §IV-F: terminate
                tag = "invalid"
                self._share_event(ad.address, kind,
                                  exc.report.check.encode("utf-8"))
            self.reputation.record(ad.address, kind, self._now())
            line = f"{ad.label}: {kind} [{exc.report.check}]"
        elif isinstance(exc, ServerOverloaded):
            # *soft* failure: a signed, honest shed — no session retirement,
            # no cold streak, no hard reputation slash (the soft-weighted
            # breadcrumb only re-ranks).  The server's retry_after goes into
            # the backoff map so re-issues wait it out.
            self.stats.soft_failovers += 1
            self.reputation.record(ad.address, EVENT_OVERLOADED, self._now())
            self._note_overload(ad.address, exc.retry_after)
            tag = "overloaded"
            line = (f"{ad.label}: overloaded "
                    f"(retry in {exc.retry_after:.3f}s)")
            defers = race.deferred.get(ad.address, 0) + 1
            race.deferred[ad.address] = defers
            if defers <= MAX_OVERLOAD_DEFERS:
                race.tried.discard(ad.address)
        else:
            # plain SessionError: a local condition (most commonly this
            # channel's budget is exhausted) — not the server's fault, no
            # reputation event
            tag, line = "session-error", f"{ad.label}: session: {exc}"
        race.attempts.append(line)
        self.stats.failovers += 1
        if attempt is not None:
            report = getattr(exc, "report", None)
            attempt.outcome = tag
            attempt.detail = report.check if report is not None else str(exc)

    def _next_candidate(self, tried: set[Address], want_batch: bool,
                        keys: Sequence[bytes] = (),
                        ) -> Optional[ServerAdvertisement]:
        """The best-ranked untried server (advertised batch speakers first
        when ``want_batch``)."""
        ranked = [ad for ad in self.eligible(keys=keys)
                  if ad.address not in tried]
        if not ranked:
            return None
        if want_batch:
            for ad in ranked:
                if ad.speaks_batch:
                    return ad
            # no batch speaker left: per-key fallback on the best remaining
        return ranked[0]

    def _note_version_mismatch(self, ad: ServerAdvertisement) -> None:
        """Record (once per server) that its ad claimed our batch version
        but its probe says otherwise — never for an honest legacy ad."""
        if ad.address in self._mismatch_noted:
            return
        self._mismatch_noted.add(ad.address)
        self.stats.version_mismatches += 1
        self.reputation.record(ad.address, EVENT_VERSION_MISMATCH, self._now())

    def _on_fraud(self, ad: ServerAdvertisement, exc: FraudDetected) -> None:
        """Escalate provable fraud: witness submission → on-chain slash."""
        self.stats.frauds_detected += 1
        self._retire_session(ad.address)
        kind = EVENT_FRAUD_DETECTED
        if exc.package is not None and self.witness is not None:
            try:
                self.witness.submit(exc.package)
                self.stats.frauds_slashed += 1
                kind = EVENT_FRAUD_SLASHED
            except FraudProofError:
                pass  # evidence did not stick on-chain; local penalty stands
        self.reputation.record(ad.address, kind, self._now())
        detail = (exc.package.calldata(self.address)
                  if exc.package is not None
                  else exc.report.check.encode("utf-8"))
        self._share_event(ad.address, kind, detail)

    # ------------------------------------------------------------------ #
    # Typed conveniences (mirror LightClientSession's)
    # ------------------------------------------------------------------ #

    def get_balance(self, address: Address) -> int:
        outcome = self.request("eth_getBalance", address)
        return decode_balance(outcome.response.result)

    def get_balances(self, addresses: Sequence[Address]) -> list[int]:
        calls = [RpcCall.create("eth_getBalance", a) for a in addresses]
        outcome = self.query_batch(calls)
        balances = []
        for item in outcome.items:
            if not item.ok:
                raise MarketplaceError(
                    f"balance query failed for {item.call.params[0].hex()}"
                )
            balances.append(decode_balance(item.result))
        return balances

    # ------------------------------------------------------------------ #
    # Settlement
    # ------------------------------------------------------------------ #

    def close_all(self) -> dict[Address, bytes]:
        """Cooperatively close every bonded channel; returns close-tx hashes.

        Retired channels (dropped after misbehavior but still open on-chain)
        are settled too — at their *acked* amount, relayed through a server
        we still trust when one is bonded, since the retired server's word
        is exactly what we stopped taking.  A server that no longer answers
        keeps its channel open (the on-chain dispute path still protects the
        funds); everyone that settles cleanly gets a ``channel_settled``
        reputation credit.
        """
        hashes: dict[Address, bytes] = {}
        bonded = list(self.bonded_sessions().items())
        relay = bonded[0][1].endpoint if bonded else None
        settlable = [(a, s, True) for a, s in bonded] + [
            (address, session, False) for address, session in self.retired
            if session.state is LightClientState.BONDED
        ]
        for address, session, in_good_standing in settlable:
            trusted_relay = relay if session.endpoint is not relay else None
            try:
                hashes[address] = session.close(relay=trusted_relay)
            except Exception:  # noqa: BLE001 — unreachable server: leave open
                self.reputation.record(address, EVENT_TIMEOUT, self._now())
                continue
            if in_good_standing:  # no settlement credit for retired servers
                self.reputation.record(address, EVENT_CHANNEL_SETTLED,
                                       self._now())
        return hashes

    def __repr__(self) -> str:
        return (
            f"MarketplaceClient(addr={self.address.hex()[:10]}…, "
            f"sessions={len(self.bonded_sessions())}/{len(self.marketplace)}, "
            f"queries={self.stats.queries}, failovers={self.stats.failovers})"
        )
