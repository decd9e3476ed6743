// Package fleet turns the single-process policyd.Service into a
// replicated serving fleet behind a gateway: N replicas each holding a
// compiled snapshot, a consistent-hash router keeping each host's
// queries on one replica (so that replica's host-map and roster-view
// lines stay hot), per-tenant token-bucket rate limiting with quota
// accounting at the edge, and snapshot-version-aware batch routing with
// a probed fleet version — the production shape of the paper's
// decision surface under "millions of users" traffic.
//
// The gateway reaches replicas only on the frame wire, through
// Config.Dial, so one Gateway serves netsim harnesses (SimFleet) and
// real TCP (cmd/policygw) identically; it serves its own callers on both
// wires (Handler for JSON, ServeFrames for frames). A transport error
// closes every conn pooled to the failed replica and retries the batch
// once on a freshly dialed conn: to the ring successor of its first host,
// or to the same replica when the fleet has one. Each failure is counted in
// fleet_replica_errors_total by class. A pooled conn idle for nearly
// policyd.FrameReadTimeout, after which its replica closes it, is retired
// unused rather than failed on. There is no per-replica deadline yet: a
// blackholed replica holds a batch for the caller's whole deadline.
package fleet

import "sort"

// defaultVNodes is the virtual-node count per replica when a ring is
// built with vnodes <= 0. 64 points per replica keeps the max/mean load
// imbalance under ~15% for small fleets while the ring stays a few KB.
const defaultVNodes = 64

// Ring is an immutable consistent-hash ring over named replicas. Keys
// (host names) map to the replica owning the first ring point at or
// after the key's hash. Because each replica's points depend only on its
// own name, adding or removing a replica moves only the keys whose
// owning point belonged to the changed replica — on average 1/(N+1) of
// the keyspace on add, exactly the removed replica's share on remove.
type Ring struct {
	points []ringPoint
	names  []string
}

type ringPoint struct {
	hash    uint64
	replica int32
}

// NewRing builds a ring over the given replica names (order defines the
// replica indices Pick returns). vnodes <= 0 means defaultVNodes.
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &Ring{
		names:  append([]string(nil), names...),
		points: make([]ringPoint, 0, len(names)*vnodes),
	}
	for i, name := range r.names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(name, v), replica: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Name returns the name of replica i.
func (r *Ring) Name(i int) string { return r.names[i] }

// Pick returns the replica index owning key, or -1 on an empty ring.
// It does not allocate.
func (r *Ring) Pick(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	return int(r.points[r.search(key)].replica)
}

// successor returns the replica index owning the first point after
// key's owning point that belongs to another replica — the replica key
// would move to if its owner were removed — or -1 when the ring holds
// fewer than two replicas. It does not allocate.
func (r *Ring) successor(key string) int {
	if len(r.names) < 2 {
		return -1
	}
	i := r.search(key)
	owner := r.points[i].replica
	for j := 1; j < len(r.points); j++ {
		if p := r.points[(i+j)%len(r.points)]; p.replica != owner {
			return int(p.replica)
		}
	}
	return -1
}

// search returns the index of key's owning point: the first point at
// or after key's hash, wrapping to 0. The ring must not be empty.
func (r *Ring) search(key string) int {
	h := fnv64a(key)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return lo
}

// Add returns a new ring with name appended (same vnode density as the
// per-replica point count of the receiver).
func (r *Ring) Add(name string) *Ring {
	return NewRing(append(append([]string(nil), r.names...), name), r.vnodesPer())
}

// Remove returns a new ring without name; removing an absent name
// returns an equivalent ring.
func (r *Ring) Remove(name string) *Ring {
	names := make([]string, 0, len(r.names))
	for _, n := range r.names {
		if n != name {
			names = append(names, n)
		}
	}
	return NewRing(names, r.vnodesPer())
}

func (r *Ring) vnodesPer() int {
	if len(r.names) == 0 {
		return defaultVNodes
	}
	return len(r.points) / len(r.names)
}

// vnodeHash positions one virtual node: FNV-1a over the replica name,
// then the vnode ordinal's bytes, then a 64-bit finalizer — name-stable,
// so an unrelated membership change never moves a surviving replica's
// points. The finalizer matters: replica names differ in a byte or two
// and FNV alone leaves their points correlated, which starves replicas.
func vnodeHash(name string, v int) uint64 {
	h := fnv64aRaw(name)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= 1099511628211
	}
	return mix64(h)
}

// fnv64a hashes a key without allocating, finalized for ring-position
// uniformity.
func fnv64a(s string) uint64 { return mix64(fnv64aRaw(s)) }

func fnv64aRaw(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the MurmurHash3 finalizer: full avalanche over 64 bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
