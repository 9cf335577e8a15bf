package framework

import (
	"fmt"

	"salsa/internal/failpoint"
	"salsa/internal/flight"
	"salsa/internal/membership"
	"salsa/internal/scpool"
	"salsa/internal/telemetry"
	"salsa/internal/topology"
)

// This file implements the framework's elastic-membership control plane:
// runtime consumer join (AddConsumer), graceful retirement
// (RetireConsumer) and crash declaration (KillConsumer) on a live pool.
//
// The design keeps the paper's hot paths untouched. All membership state a
// data-plane operation needs is gathered into an immutable epoch value
// published through one atomic pointer; put/get/steal/checkEmpty read the
// pointer once per operation and never take a lock. Membership changes are
// rare control-plane events: they serialize on fw.mu, build the next epoch
// from the current one (copy-on-write, including the topology placement)
// and publish it with a single store.
//
// Departed consumers leave three things behind, each handled without new
// synchronization:
//
//   - Their queued tasks. The pool is marked abandoned, which only makes
//     Produce fail (the §1.5.4 balancing signal, reused for routing);
//     survivors reclaim the chunks through the ordinary Steal path because
//     every pool ever registered stays on every consumer's victim list.
//   - Their spare chunks. Drained into the nearest live survivor's chunk
//     pool at retirement, restoring the producer-based balancing signal.
//   - Their empty-indicator slot. Abandoned pools stay in the checkEmpty
//     scan set forever — the "permanently raised" rule — because in-flight
//     produces, forced puts and a producer's current chunk can still land
//     tasks there after the epoch flips; dropping the pool from the scan
//     would let checkEmpty linearize an emptiness that a reclaimable task
//     refutes. Consumer ids are never reused for the same reason (a fresh
//     pool under a recycled id would alias the abandoned pool's id in
//     chunk owner words).

// epoch is an immutable membership view. Hot paths load it once per
// operation via Framework.epoch; every field is read-only after publish.
type epoch[T any] struct {
	// version is the membership epoch number (monotonic, starts at 0).
	version uint64

	// placement maps every registered producer and consumer to cores;
	// it grows copy-on-write as consumers join.
	placement *topology.Placement

	// pools holds the SCPool of every consumer ever registered, indexed
	// by id. Pools are never removed: abandoned pools remain steal
	// victims and checkEmpty subjects forever (see the file comment).
	pools []scpool.SCPool[T]

	// abandoned[id] reports whether consumer id departed.
	abandoned []bool

	// live lists the non-departed consumer ids, ascending.
	live []int

	// prodAccess[p] is producer p's access list for this epoch: the
	// live pools sorted nearest-first from the producer's core. Forced
	// puts fall back to prodAccess[p][0].
	prodAccess [][]scpool.SCPool[T]

	// prodWake[p] holds the consumers of prodAccess[p], in the same
	// order: the nearest-first list a put walks to wake a parked one.
	prodWake [][]*Consumer[T]
}

// buildEpoch assembles and publishes the epoch for the given membership
// state, then wakes every parked consumer so it looks at the new view.
// Caller holds fw.mu, and fw.consumers already holds every registered
// handle.
func (fw *Framework[T]) buildEpoch(version uint64, pl *topology.Placement,
	pools []scpool.SCPool[T], abandoned []bool) *epoch[T] {

	live := make([]int, 0, len(pools))
	for id := range pools {
		if !abandoned[id] {
			live = append(live, id)
		}
	}
	prodAccess := make([][]scpool.SCPool[T], len(fw.producers))
	prodWake := make([][]*Consumer[T], len(fw.producers))
	for i := range prodAccess {
		order := pl.ProducerAccessList(i)
		access := make([]scpool.SCPool[T], 0, len(live))
		wake := make([]*Consumer[T], 0, len(live))
		for _, c := range order {
			if !abandoned[c] {
				access = append(access, pools[c])
				wake = append(wake, fw.consumers[c])
			}
		}
		prodAccess[i] = access
		prodWake[i] = wake
	}
	ep := &epoch[T]{
		version:    version,
		placement:  pl,
		pools:      pools,
		abandoned:  abandoned,
		live:       live,
		prodAccess: prodAccess,
		prodWake:   prodWake,
	}
	fw.epoch.Store(ep)
	fw.wakeAll()
	return ep
}

// MembershipEpoch returns the current membership epoch number. Epoch 0 is
// the configuration the framework was built with; every AddConsumer,
// RetireConsumer and KillConsumer advances it by one.
func (fw *Framework[T]) MembershipEpoch() uint64 { return fw.epoch.Load().version }

// LiveConsumers returns the number of consumers that have not departed.
func (fw *Framework[T]) LiveConsumers() int { return len(fw.epoch.Load().live) }

// LiveConsumerIDs returns the live consumer ids, ascending.
func (fw *Framework[T]) LiveConsumerIDs() []int {
	ep := fw.epoch.Load()
	return append([]int(nil), ep.live...)
}

// ConsumerDeparted reports whether consumer id has retired or crashed.
func (fw *Framework[T]) ConsumerDeparted(id int) bool {
	ep := fw.epoch.Load()
	return id >= 0 && id < len(ep.abandoned) && ep.abandoned[id]
}

// SparesDrained returns the total number of spare chunks moved out of
// departing pools into survivors across all membership changes.
func (fw *Framework[T]) SparesDrained() int64 { return fw.sparesDrained.Load() }

// AddConsumer grows the live consumer set by one: it places the new
// consumer on the least-loaded core, builds its SCPool through the
// configured factory, publishes the next epoch and returns the new handle.
// The handle must be driven by a single goroutine, like any other.
//
// Consumer ids are monotonic and never reused; the total number of
// consumers ever registered is bounded by Config.MaxConsumers, because
// substrate capacity (indicator sizes, owner-word ranges) is fixed at
// construction.
func (fw *Framework[T]) AddConsumer() (*Consumer[T], error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()

	id := fw.reg.Registered()
	if id >= fw.reg.Capacity() {
		return nil, fmt.Errorf("framework: consumer capacity %d exhausted (ids are never reused; raise MaxConsumers)",
			fw.reg.Capacity())
	}
	ep := fw.epoch.Load()
	pl, _ := ep.placement.WithConsumerAdded()
	node := pl.ConsumerNode(id)
	pool, err := fw.cfg.NewPool(id, node, len(fw.producers))
	if err != nil {
		return nil, fmt.Errorf("framework: building pool %d: %w", id, err)
	}
	if pool.OwnerID() != id {
		return nil, fmt.Errorf("framework: pool %d reports owner %d", id, pool.OwnerID())
	}
	regID, version, err := fw.reg.Add()
	if err != nil {
		return nil, err
	}
	if regID != id {
		panic(fmt.Sprintf("framework: registry id %d != expected %d", regID, id))
	}

	co := fw.newConsumer(id, node, pool)
	fw.consumers = append(fw.consumers, co)

	pools := append(append([]scpool.SCPool[T](nil), ep.pools...), pool)
	abandoned := append(append([]bool(nil), ep.abandoned...), false)
	newEp := fw.buildEpoch(version, pl, pools, abandoned)

	telemetry.EmitMembership(fw.cfg.Tracer, telemetry.MembershipEvent{
		Kind: telemetry.MemberJoined, Consumer: id, Node: node,
		Epoch: version, Live: len(newEp.live),
	})
	// Control ring: multi-writer-safe; id is namespaced by FlightBase so
	// co-resident pools' membership events stay distinguishable.
	flight.RecordControl(flight.KMemberJoin, version, int32(fw.cfg.FlightBase+id), int32(node))
	return co, nil
}

// RetireConsumer gracefully removes consumer id from the live set. The
// caller must have stopped driving the handle first: after retirement the
// handle's Get family panics. The victim's pool is abandoned (Produce
// fails, routing producers to survivors), its spare chunks drain into the
// nearest live survivor, and its queued tasks remain reclaimable through
// the ordinary steal path — no task is lost.
//
// The last live consumer cannot retire: someone has to be able to drain
// the pool.
func (fw *Framework[T]) RetireConsumer(id int) error {
	return fw.depart(id, telemetry.MemberRetired)
}

// KillConsumer declares consumer id crashed, abandoning its pool without
// any cooperation from the victim — the fault-injection path. Identical to
// RetireConsumer except for the recorded cause, and for what the victim
// may have been doing: a consumer killed mid-Get can have announced one
// in-flight task slot that thieves will treat as consumed, so the lost-task
// window is bounded by that single slot (a quiescent victim loses
// nothing). The victim's hazard record is never released, which can keep
// at most two chunks from being recycled — memory, not tasks.
func (fw *Framework[T]) KillConsumer(id int) error {
	return fw.depart(id, telemetry.MemberCrashed)
}

func (fw *Framework[T]) depart(id int, kind telemetry.MembershipKind) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()

	var (
		version uint64
		err     error
	)
	if kind == telemetry.MemberCrashed {
		version, err = fw.reg.Kill(id)
	} else {
		version, err = fw.reg.Retire(id)
	}
	if err != nil {
		return err
	}

	ep := fw.epoch.Load()
	pool := ep.pools[id]
	scpool.Abandon[T](pool) // native flag when supported; routing exclusion below either way

	abandoned := append([]bool(nil), ep.abandoned...)
	abandoned[id] = true

	// Drain the departing pool's spare chunks into the nearest live
	// survivor so the memory and the producer-based balancing signal
	// follow the live set. The access list is distance-sorted from the
	// victim's core, so the first non-departed entry is the natural heir.
	drained := 0
	for _, c := range ep.placement.ConsumerAccessList(id) {
		if c == id || abandoned[c] {
			continue
		}
		drained = scpool.DrainSpares[T](pool, ep.pools[c])
		break
	}
	fw.sparesDrained.Add(int64(drained))

	// killed must be raised before departed: checkLive panics on a departed
	// handle unless it is killed, and a kill can fire from inside the
	// victim's own retrieval (a failpoint hook calling KillConsumer), which
	// must unwind as empty rather than observe a departed/!killed window.
	if kind == telemetry.MemberCrashed {
		fw.consumers[id].killed.Store(true)
	}
	fw.consumers[id].departed.Store(true)
	// Between the registry transition above and the epoch publish below,
	// producers still route to the abandoned pool and checkEmpty still
	// scans the old live set; chaos schedules use this window to assert the
	// straggler-reclaim path.
	failpoint.Inject(failpoint.MembershipBeforeEpochPublish, id)
	newEp := fw.buildEpoch(version, ep.placement, ep.pools, abandoned)

	telemetry.EmitMembership(fw.cfg.Tracer, telemetry.MembershipEvent{
		Kind: kind, Consumer: id, Node: ep.placement.ConsumerNode(id),
		Epoch: version, Live: len(newEp.live), SparesDrained: drained,
	})
	fk := flight.KMemberRetire
	if kind == telemetry.MemberCrashed {
		fk = flight.KMemberCrash
	}
	// Control ring: multi-writer-safe; id is namespaced by FlightBase so
	// co-resident pools' membership events stay distinguishable.
	flight.RecordControl(fk, version, int32(fw.cfg.FlightBase+id), int32(ep.placement.ConsumerNode(id)))
	return nil
}

// Registry exposes the membership registry (read-only use: state queries
// in tests and telemetry).
func (fw *Framework[T]) Registry() *membership.Registry { return fw.reg }
