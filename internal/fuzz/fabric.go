package fuzz

import (
	"sync"
	"sync/atomic"
)

// SnapFabric is the process-wide persistent-mode snapshot store: one
// bounded, sharded, mutex-per-shard fabric shared by every worker of a
// campaign, replacing the per-executor caches that made N workers cold-boot
// the same prefix N times. A fabric serves exactly one driver image — the
// fuzzer builds one per campaign, so the driver is part of the fabric's
// identity and entries are keyed inside it by effective stream prefix (and
// guarded by eligBound, see snapshot.matches).
//
// Sharding exploits the matching rule: a snapshot with words >= 1 can only
// match feeds whose first effective data word (zero-extended, exactly as
// matches compares) equals its own, so those snapshots hash by that word
// into one of the data shards and a lookup touches a single shard lock.
// Snapshots that consumed no data words can match any feed and live in the
// wild shard, which every lookup also scans. Each shard keeps snapCacheMax
// entries in most-recently-used order, so the fabric stays bounded at
// (shards+1)*snapCacheMax process-wide.
//
// Concurrency: snapshots are immutable once published (the frozen state is
// never stepped; a resume restores it into the executor's own state, on a
// private COW overlay and trace node, and writes nothing shared but the
// frozen memory's atomic fork count), so sharing them across executors is
// safe — the shard mutex
// orders publication, and the owner tag lets the hit accounting split
// same-worker hits from cross-worker (shared) hits.
type SnapFabric struct {
	nextID     atomic.Uint64
	hits       atomic.Uint64 // served by a snapshot this executor recorded
	sharedHits atomic.Uint64 // served by another executor's snapshot
	misses     atomic.Uint64 // no valid snapshot; execution ran cold

	shards [snapFabricShards]snapShard
	wild   snapShard
}

const snapFabricShards = 16

type snapShard struct {
	mu    sync.Mutex
	snaps []*snapshot
}

// NewSnapFabric returns an empty fabric.
func NewSnapFabric() *SnapFabric {
	return &SnapFabric{}
}

// register hands out a unique executor identity used to attribute hits.
func (f *SnapFabric) register() uint64 {
	return f.nextID.Add(1)
}

// Stats returns the lookup counters: hits served by the asking executor's
// own snapshots, hits served by another executor's (the sharing win), and
// misses (cold executions).
func (f *SnapFabric) Stats() (hits, sharedHits, misses uint64) {
	return f.hits.Load(), f.sharedHits.Load(), f.misses.Load()
}

// shardIndex hashes the first effective data word of a stream — zero-
// extended, mirroring snapshot.matches — into a data shard.
func shardIndex(data []byte) int {
	var w [4]byte
	copy(w[:], data)
	h := uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16 | uint32(w[3])<<24
	h ^= h >> 16
	h *= 0x45d9f3b
	h ^= h >> 16
	return int(h % snapFabricShards)
}

// best returns the deepest snapshot valid for feed, tagging the lookup in
// the hit/shared-hit/miss counters against the asking executor's identity.
func (f *SnapFabric) best(feed *Feed, execID uint64) *snapshot {
	sn := f.shards[shardIndex(feed.Data)].best(feed, nil)
	sn = f.wild.best(feed, sn)
	switch {
	case sn == nil:
		f.misses.Add(1)
	case sn.owner == execID:
		f.hits.Add(1)
	default:
		f.sharedHits.Add(1)
	}
	return sn
}

// add publishes a snapshot, deduplicating identical prefixes. Same-prefix
// snapshots always land in the same shard: equal prefixes share their first
// effective word (or both consumed none).
func (f *SnapFabric) add(sn *snapshot) {
	sh := &f.wild
	if sn.words > 0 {
		sh = &f.shards[shardIndex(sn.data)]
	}
	sh.add(sn)
}

// best scans one shard for the deepest match, moves it to the recency
// front, and returns it if deeper than cur.
func (sh *snapShard) best(feed *Feed, cur *snapshot) *snapshot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bi := -1
	for i, sn := range sh.snaps {
		if (bi < 0 || sn.steps > sh.snaps[bi].steps) && sn.matches(feed) {
			bi = i
		}
	}
	if bi < 0 {
		return cur
	}
	sn := sh.snaps[bi]
	copy(sh.snaps[1:bi+1], sh.snaps[:bi])
	sh.snaps[0] = sn
	if cur == nil || sn.steps > cur.steps {
		return sn
	}
	return cur
}

// add records a snapshot at the shard's recency front, dropping an
// identical-prefix entry and evicting beyond capacity.
func (sh *snapShard) add(sn *snapshot) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, o := range sh.snaps {
		if o.samePrefix(sn) {
			sh.snaps = append(sh.snaps[:i], sh.snaps[i+1:]...)
			break
		}
	}
	sh.snaps = append(sh.snaps, nil)
	copy(sh.snaps[1:], sh.snaps)
	sh.snaps[0] = sn
	if len(sh.snaps) > snapCacheMax {
		sh.snaps = sh.snaps[:snapCacheMax]
	}
}
