package store

import "sync/atomic"

// Tiered composes a local Backend in front of a remote one: reads are
// read-through (local hit, else remote fetch with a best-effort local
// fill), writes land locally synchronously and are written back to the
// remote tier asynchronously. The remote tier is an accelerator for the
// accelerator — every remote fault (unreachable peer, timeout, torn
// response) degrades to a local miss, and a saturated write-back queue
// drops writes rather than stalling the pipeline. A Tiered lives as long
// as its process; Flush exists so tests can drain the write-back queue.
type Tiered struct {
	local  Backend
	remote Backend

	queue chan writeBack

	localHits, remoteHits, misses atomic.Int64
	writeBacks, wbErrors, wbDrops atomic.Int64
	puts, putErrors               atomic.Int64
}

type writeBack struct {
	key  Key
	data []byte
	ack  chan struct{} // Flush sentinel; nil for real writes
}

// writeBackQueue bounds the asynchronous remote write-back queue.
const writeBackQueue = 64

// NewTiered composes local in front of remote with an asynchronous
// write-back queue of writeBackQueue entries. A single goroutine drains
// the queue; a full queue drops the write-back (counted) instead of
// blocking Put.
func NewTiered(local, remote Backend) *Tiered {
	t := &Tiered{
		local:  local,
		remote: remote,
		queue:  make(chan writeBack, writeBackQueue),
	}
	go t.writeBackLoop()
	return t
}

func (t *Tiered) writeBackLoop() {
	for wb := range t.queue {
		if wb.ack != nil {
			close(wb.ack)
			continue
		}
		if err := t.remote.Put(wb.key, wb.data); err != nil {
			t.wbErrors.Add(1)
		} else {
			t.writeBacks.Add(1)
		}
	}
}

// Get consults the local tier first, then the remote tier (filling the
// local tier on a remote hit so the next read is local). Remote faults
// are indistinguishable from remote misses by contract.
func (t *Tiered) Get(key Key) ([]byte, bool) {
	if data, ok := t.local.Get(key); ok {
		t.localHits.Add(1)
		return data, true
	}
	return t.getRemote(key)
}

// view is Get with a local hit lent through the local tier's view (see
// lend); a remote hit still arrives as bytes and still fills the local
// tier. The hit and miss accounting is Get's.
func (t *Tiered) view(key Key) ([]byte, func(), bool) {
	if data, release, ok := lend(t.local, key); ok {
		t.localHits.Add(1)
		return data, release, true
	}
	data, ok := t.getRemote(key)
	return data, func() {}, ok
}

// getRemote is the read after a local miss: the remote tier, filling the
// local tier on a hit.
func (t *Tiered) getRemote(key Key) ([]byte, bool) {
	if data, ok := t.remote.Get(key); ok {
		t.remoteHits.Add(1)
		_ = t.local.Put(key, data) // best-effort fill
		return data, true
	}
	t.misses.Add(1)
	return nil, false
}

// Put writes locally (that error is the caller's) and enqueues an
// asynchronous remote write-back; a full queue drops the write-back.
func (t *Tiered) Put(key Key, data []byte) error {
	err := t.local.Put(key, data)
	if err != nil {
		t.putErrors.Add(1)
	} else {
		t.puts.Add(1)
	}
	select {
	case t.queue <- writeBack{key: key, data: data}:
	default:
		t.wbDrops.Add(1)
	}
	return err
}

// Delete removes the object from both tiers (best-effort).
func (t *Tiered) Delete(key Key) {
	t.local.Delete(key)
	t.remote.Delete(key)
}

// Flush blocks until every write-back enqueued before the call has been
// attempted — a test aid, not a durability guarantee (drops stay
// dropped).
func (t *Tiered) Flush() {
	ack := make(chan struct{})
	t.queue <- writeBack{ack: ack}
	<-ack
}

// Stats merges both tiers' traffic into one snapshot: Hits/Misses
// describe the composed Get path, Puts/PutErrors the local write path,
// Evictions come from the local tier (the LRU lives there), and the
// tiered fields expose where hits landed and how write-back fared.
func (t *Tiered) Stats() Stats {
	local := t.local.Stats()
	return Stats{
		Hits:            t.localHits.Load() + t.remoteHits.Load(),
		Misses:          t.misses.Load(),
		Puts:            t.puts.Load(),
		PutErrors:       t.putErrors.Load(),
		Evictions:       local.Evictions,
		LocalHits:       t.localHits.Load(),
		RemoteHits:      t.remoteHits.Load(),
		WriteBacks:      t.writeBacks.Load(),
		WriteBackErrors: t.wbErrors.Load(),
		WriteBackDrops:  t.wbDrops.Load(),
	}
}
