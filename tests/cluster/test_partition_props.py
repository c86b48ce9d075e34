"""Property tests for partition and routing invariants.

Two layers.  The partition layer is checked directly: for every
``make_partition`` kind on a randomized (size, n_parts) grid, the
bijection invariants must hold — each position owned by exactly one
shard, local counts summing to the global size, ``spec()`` round-trips.
The routing layer is checked with injected fake clients (no sockets):
the router must send each probe *only* to its owner's endpoint at the
owner-local slot, and fail over to the replica endpoint exactly when a
primary raises a transport error.  A Hypothesis property holds the
array routing of a whole batch to a per-position scalar reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.manifest import ShardManifest
from repro.cluster.router import ShardRouter
from repro.core.partition import make_partition, partition_from_spec
from repro.obs import MetricsRegistry
from repro.serve.client import ProbeError, ProbeTransportError

KINDS = ("block", "cyclic", "hash")


def grid():
    """Deterministic edge cases plus a seeded random (size, n_parts)
    sample — the same grid on every run."""
    cases = [(0, 1), (0, 3), (1, 1), (1, 4), (7, 7), (7, 16), (64, 2)]
    rng = np.random.default_rng(42)
    for _ in range(10):
        cases.append(
            (int(rng.integers(2, 3000)), int(rng.integers(1, 17)))
        )
    return cases


GRID = grid()


@pytest.mark.parametrize("kind", KINDS)
class TestPartitionInvariants:
    @pytest.mark.parametrize("size,n_parts", GRID)
    def test_exactly_one_owner(self, kind, size, n_parts):
        """The union of all ranks' local index sets is exactly the
        global index range — every position owned once, none twice,
        none dropped."""
        part = make_partition(kind, size, n_parts)
        owned = [part.local_indices(r) for r in range(n_parts)]
        merged = np.sort(np.concatenate(owned)) if owned else np.array([])
        np.testing.assert_array_equal(merged, np.arange(size))
        assert sum(part.local_count(r) for r in range(n_parts)) == size

    @pytest.mark.parametrize("size,n_parts", GRID)
    def test_owner_and_local_are_consistent(self, kind, size, n_parts):
        """owner_of/to_local agree with local_indices: the position at
        rank r's local slot s is the s-th entry of local_indices(r)."""
        part = make_partition(kind, size, n_parts)
        if size:
            everyone = np.arange(size)
            owners = part.owner_of(everyone)
            assert owners.min() >= 0 and owners.max() < n_parts
        for rank in range(n_parts):
            mine = part.local_indices(rank)
            np.testing.assert_array_equal(
                part.owner_of(mine), np.full(mine.shape[0], rank)
            )
            np.testing.assert_array_equal(
                part.to_local(mine), np.arange(mine.shape[0])
            )

    @pytest.mark.parametrize("size,n_parts", GRID)
    def test_spec_roundtrip_rebuilds_the_same_bijection(
        self, kind, size, n_parts
    ):
        """partition_from_spec(spec()) is the manifest's correctness
        contract: the rebuilt partition must map every index to the
        same (owner, local) pair."""
        part = make_partition(kind, size, n_parts)
        spec = part.spec()
        assert spec == {"kind": kind, "size": size, "n_parts": n_parts}
        rebuilt = partition_from_spec(spec)
        idx = np.arange(size)
        np.testing.assert_array_equal(rebuilt.owner_of(idx), part.owner_of(idx))
        np.testing.assert_array_equal(rebuilt.to_local(idx), part.to_local(idx))


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown partition"):
            partition_from_spec({"kind": "striped", "size": 10, "n_parts": 2})

    @pytest.mark.parametrize("missing", ["kind", "size", "n_parts"])
    def test_missing_field_rejected(self, missing):
        spec = {"kind": "cyclic", "size": 10, "n_parts": 2}
        del spec[missing]
        with pytest.raises(ValueError, match="bad partition spec"):
            partition_from_spec(spec)

    def test_non_numeric_size_rejected(self):
        with pytest.raises(ValueError, match="bad partition spec"):
            partition_from_spec(
                {"kind": "cyclic", "size": "many", "n_parts": 2}
            )


# --------------------------------------------------------------- routing

#: Fake endpoint ports: shard r's primary is PRIMARY_BASE + r, its
#: replica REPLICA_BASE + r — the port alone identifies the endpoint.
PRIMARY_BASE = 1000
REPLICA_BASE = 2000


def encode(port: int, local: int) -> int:
    """The value a fake endpoint serves for one local slot: identifies
    (endpoint, slot) so misrouted or misgathered probes are visible in
    the output, not just in the request log."""
    return (port // 1000) * 8000 + (port % 1000) * 500 + (local % 500)


class FakeClient:
    """Records every request; answers with endpoint-identifying values."""

    def __init__(self, host, port, log):
        self.host, self.port, self.log = host, port, log

    def probe(self, db_id, local):
        self.log.append((self.port, db_id, int(local)))
        return encode(self.port, int(local))

    def probe_many(self, pairs):
        pairs = list(pairs)
        for db_id, local in pairs:
            self.log.append((self.port, db_id, int(local)))
        return np.array(
            [encode(self.port, int(local)) for _, local in pairs],
            dtype=np.int16,
        )

    def close(self):
        pass


class FailingClient(FakeClient):
    """A primary that records the attempt, then dies on the wire."""

    def probe(self, db_id, local):
        super().probe(db_id, local)
        raise ProbeTransportError(f"injected failure on port {self.port}")

    def probe_many(self, pairs):
        super().probe_many(list(pairs))
        raise ProbeTransportError(f"injected failure on port {self.port}")


def make_manifest(kind: str, sizes: dict, n_shards: int) -> ShardManifest:
    """An in-memory manifest over fake databases — no files involved."""
    return ShardManifest(
        game="awari",
        rules="",
        partition=kind,
        n_shards=n_shards,
        block_positions=64,
        databases={
            db_id: make_partition(kind, size, n_shards).spec()
            for db_id, size in sizes.items()
        },
        shard_files=[f"shard_{r:02d}.pgdb" for r in range(n_shards)],
    )


def make_router(kind, sizes, n_shards, log, replicas=False, fail_primary=False,
                metrics=None):
    """A router over fake endpoints; requests land in ``log``."""
    endpoints = [
        [("fake", PRIMARY_BASE + r)]
        + ([("fake", REPLICA_BASE + r)] if replicas else [])
        for r in range(n_shards)
    ]

    def factory(host, port):
        if fail_primary and port < REPLICA_BASE:
            return FailingClient(host, port, log)
        return FakeClient(host, port, log)

    return ShardRouter(
        make_manifest(kind, sizes, n_shards), endpoints,
        metrics=metrics, client_factory=factory,
    )


SIZES = {0: 1, 3: 64, 5: 119}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
class TestRouterSendsOnlyToOwner:
    def test_single_probes_hit_the_owner_slot(self, kind, n_shards):
        log = []
        with make_router(kind, SIZES, n_shards, log) as router:
            for db_id, size in SIZES.items():
                part = router.manifest.partition_for(db_id)
                for index in range(size):
                    got = router.probe(db_id, index)
                    owner = int(part.owner_of(index))
                    local = int(part.to_local(index))
                    assert log[-1] == (PRIMARY_BASE + owner, db_id, local)
                    assert got == encode(PRIMARY_BASE + owner, local)
        # Exactly one request per probe: no shard ever saw a position
        # it does not own.
        assert len(log) == sum(SIZES.values())

    def test_batch_scatter_respects_ownership(self, kind, n_shards):
        """A scrambled cross-database batch: every logged request goes
        to the owner's endpoint, and the gathered values decode to the
        exact (owner, local) pair of each requested position."""
        log = []
        rng = np.random.default_rng(7)
        pairs = [
            (db_id, int(i))
            for db_id, size in SIZES.items()
            for i in rng.permutation(size)
        ]
        with make_router(kind, SIZES, n_shards, log) as router:
            values = router.probe_many(pairs)
            parts = {
                db_id: router.manifest.partition_for(db_id)
                for db_id in SIZES
            }
        for (db_id, index), value in zip(pairs, values):
            owner = int(parts[db_id].owner_of(index))
            local = int(parts[db_id].to_local(index))
            assert value == encode(PRIMARY_BASE + owner, local), (
                f"{kind}/{n_shards}: position ({db_id}, {index}) answered "
                f"by the wrong endpoint or slot"
            )
        for port, db_id, local in log:
            shard = port - PRIMARY_BASE
            owned = parts[db_id].local_indices(shard)
            assert local < owned.shape[0], (
                f"shard {shard} asked for slot {local} beyond its "
                f"{owned.shape[0]} owned positions of db {db_id}"
            )
        assert len(log) == len(pairs)


@pytest.mark.parametrize("kind", KINDS)
class TestFailoverRouting:
    def test_failover_lands_on_the_replica_owner(self, kind):
        """Dead primaries: the replay goes to the *same shard's* replica
        with the identical sub-batch, and ``cluster.failovers`` counts
        one rotation per shard."""
        n_shards = 3
        log = []
        registry = MetricsRegistry()
        pairs = [(5, i) for i in range(SIZES[5])]
        with make_router(
            kind, SIZES, n_shards, log,
            replicas=True, fail_primary=True, metrics=registry,
        ) as router:
            values = router.probe_many(pairs)
            part = router.manifest.partition_for(5)
            for (db_id, index), value in zip(pairs, values):
                owner = int(part.owner_of(index))
                local = int(part.to_local(index))
                assert value == encode(REPLICA_BASE + owner, local)
            # The replica received exactly what its primary was asked.
            by_port: dict = {}
            for port, db_id, local in log:
                by_port.setdefault(port, []).append((db_id, local))
            for shard in range(n_shards):
                assert (
                    by_port[PRIMARY_BASE + shard]
                    == by_port[REPLICA_BASE + shard]
                ), f"shard {shard} replay diverged from the original"
            assert registry.counters["cluster.failovers"] == n_shards
            assert registry.counters["cluster.shard_errors"] == n_shards
            # The rotation sticks: the next batch goes straight to the
            # replicas, no further failovers.
            router.probe_many(pairs)
            assert registry.counters["cluster.failovers"] == n_shards

    def test_exhausted_shard_raises_not_misroutes(self, kind):
        """No replicas and a dead primary: a loud ProbeError naming the
        shard, never a value from a non-owner."""
        log = []
        with make_router(
            kind, SIZES, 2, log, replicas=False, fail_primary=True
        ) as router:
            with pytest.raises(ProbeError, match="endpoints failed"):
                router.probe(5, 0)

    def test_application_rejection_does_not_fail_over(self, kind):
        """A rejection (plain ProbeError) must re-raise unrotated — a
        replica would reject identically, so rotating only hides the
        real error and doubles the load."""

        class RejectingClient(FakeClient):
            def probe(self, db_id, local):
                super().probe(db_id, local)
                raise ProbeError("db 5 not present")

        log = []
        registry = MetricsRegistry()
        endpoints = [
            [("fake", PRIMARY_BASE + r), ("fake", REPLICA_BASE + r)]
            for r in range(2)
        ]
        router = ShardRouter(
            make_manifest(kind, SIZES, 2), endpoints, metrics=registry,
            client_factory=lambda host, port: RejectingClient(
                host, port, log
            ),
        )
        with router:
            with pytest.raises(ProbeError, match="not present"):
                router.probe(5, 0)
        assert registry.counters.get("cluster.failovers", 0) == 0
        assert len(log) == 1  # one attempt, no replay anywhere


# ------------------------------------------- array routing ≡ scalar routing

BLOCK = 64  # make_manifest's block_positions


class RecordingClient(FakeClient):
    """Keeps every sub-batch exactly as the router handed it over."""

    def __init__(self, host, port, log, batches):
        super().__init__(host, port, log)
        self.batches = batches

    def probe_many(self, pairs):
        self.batches.append((self.port, pairs))
        return super().probe_many(pairs)


def recording_router(kind, sizes, n_shards, batches, made):
    """A router whose fake clients record whole sub-batches in
    ``batches`` and their own construction in ``made``."""

    def factory(host, port):
        made.append(port)
        return RecordingClient(host, port, [], batches)

    return ShardRouter(
        make_manifest(kind, sizes, n_shards),
        [[("fake", PRIMARY_BASE + r)] for r in range(n_shards)],
        client_factory=factory,
    )


@st.composite
def routed_batch(draw):
    """(kind, n_shards, sizes, positions): int or str database ids,
    positions drawn with replacement so duplicates are common."""
    kind = draw(st.sampled_from(KINDS))
    n_shards = draw(st.integers(1, 4))
    ids = draw(st.sampled_from([(0, 3, 5, 10), ("a", "kalah-4", "10", "9")]))
    sizes = {db_id: draw(st.integers(1, 300)) for db_id in ids}
    positions = draw(st.lists(
        st.sampled_from(ids).flatmap(
            lambda db_id: st.tuples(
                st.just(db_id), st.integers(0, sizes[db_id] - 1)
            )
        ),
        min_size=1, max_size=80,
    ))
    return kind, n_shards, sizes, positions


class TestArrayRoutingMatchesScalarReference:
    @given(routed_batch())
    @settings(max_examples=150, deadline=None)
    def test_batch_routing(self, case):
        kind, n_shards, sizes, positions = case
        batches, made = [], []
        with recording_router(kind, sizes, n_shards, batches, made) as router:
            values = router.probe_many(positions)
            parts = {d: router.manifest.partition_for(d) for d in sizes}
        # The reference: one index at a time through the scalar calls.
        reference = [
            (int(parts[db_id].owner_of(index)), db_id,
             int(parts[db_id].to_local(index)))
            for db_id, index in positions
        ]
        # Merged answer in request order (duplicates included).
        assert values.dtype == np.int16 and values.shape == (len(positions),)
        assert values.tolist() == [
            encode(PRIMARY_BASE + owner, local)
            for owner, _, local in reference
        ]
        # One sub-batch per owning shard, nothing sent anywhere else.
        assert sorted(port for port, _ in batches) == sorted(
            {PRIMARY_BASE + owner for owner, _, _ in reference}
        )
        for port, pairs in batches:
            assert len(pairs) > 0  # a sized container, not an iterator
            assert all(
                isinstance(pair, tuple) and len(pair) == 2 for pair in pairs
            )
            assert all(db_id in sizes for db_id, _ in pairs)
            keys = [(str(db_id), local // BLOCK) for db_id, local in pairs]
            assert keys == sorted(keys), "sub-batch not in locality order"
            want = [
                (db_id, local) for owner, db_id, local in reference
                if PRIMARY_BASE + owner == port
            ]
            assert sorted(pairs, key=repr) == sorted(want, key=repr)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_positions_raise_before_any_client_is_taken(self, kind):
        """Range and database checks belong to the pure routing step:
        they fire before the pool is touched, for a batch and for a
        single probe alike."""
        made = []
        router = ShardRouter(
            make_manifest(kind, SIZES, 2),
            [[("fake", PRIMARY_BASE + r)] for r in range(2)],
            client_factory=lambda host, port: made.append(port),
        )
        with router:
            for bad in (119, -1):
                message = f"index {bad} out of range for db 5 \\(119 positions\\)"
                with pytest.raises(IndexError, match=message):
                    router.probe_many([(3, 1), (5, 7), (5, bad), (3, 2)])
                with pytest.raises(IndexError, match=message):
                    router.probe(5, bad)
            with pytest.raises(KeyError, match="database 99 not present"):
                router.probe_many([(3, 1), (99, 0)])
            with pytest.raises(KeyError, match="database 'x' not present"):
                router.probe("x", 0)
        assert made == []
