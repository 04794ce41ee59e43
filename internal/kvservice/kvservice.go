// Package kvservice is the multi-client KV service workload tier: a
// sharded key-value store built entirely from the internal/pds persistent
// structures, driven by deterministic request-arrival streams and measured
// with per-client latency histograms.
//
// Each client (one per core) owns a shard — a pds.Map for point operations
// plus a pds.List as the ordered index behind scans — so shard writers are
// single-threaded and the Map's out-of-place Resize runs under its
// quiescence contract. One pds.Queue is shared by every client as the
// commit oplog: a client batches consecutive requests inside a configurable
// batch window, applies them to its shard, then enqueues one batch record —
// the cross-core persist traffic the paper's Fig. 6 migration path exists
// for.
//
// Requests follow a precomputed schedule: arrival cycles, operation mix
// (put/get/delete/scan) and key draws (zipfian for "kv", uniform for
// "kv/uniform") all come from the drivers' seed formula, so the offered
// load is byte-identical across schemes — latency differences are purely
// the persistency scheme's. A request's latency is its batch-commit cycle
// minus its arrival cycle, observed into per-client histograms that
// workload.Run folds into Result.Metrics (kv.lat and friends in the stats
// Glossary).
package kvservice

import (
	"fmt"
	"math/rand"
	"sort"

	"bbb/internal/cpu"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/pds"
	"bbb/internal/stats"
	"bbb/internal/system"
	"bbb/internal/workload"
)

func init() {
	workload.Register(func() workload.Workload { return &Service{dist: distZipf} })
	workload.Register(func() workload.Workload { return &Service{dist: distUniform} })
}

const (
	distZipf = iota
	distUniform
)

const (
	opPut = iota
	opGet
	opDelete
	opScan
)

const (
	// keyspace is the per-client key range; keys stay >= 1.
	keyspace = 1 << 12
	// batchCap bounds a batch regardless of window length.
	batchCap = 16
	// defaultWindow is the batch window when Params.BatchWindow is zero.
	defaultWindow = engine.Cycle(400)
	// scanWidth is the range-query fan of a scan request.
	scanWidth = 8
	// latWindowWidth is the time-window width of the kv.lat.win latency
	// series in cycles: ~12 windows over a default 4x400 run, enough to
	// see warm-up and steady state without drowning the report.
	latWindowWidth = 25000
	// defaultSLO is the latency objective when Params.SLOTarget is zero:
	// 20000 cycles (10 us at 2 GHz) sits between every scheme's p50 and
	// p95, so burn rates separate the schemes without saturating.
	defaultSLO = 20000
)

// request is one precomputed service request.
type request struct {
	op      int
	key     uint64
	val     uint64
	arrival engine.Cycle
}

// client is one service client and its shard.
type client struct {
	reqs    []request
	shard   *pds.Map
	index   *pds.List
	oplog   *pds.Queue // shared across clients
	scratch memory.Addr

	// Host-side measurements, observed at simulated-commit time.
	lat, latPut, latGet, latDel, latScan stats.Histogram
	batchSize, queueDelay                stats.Histogram
	// latWin is the windowed latency series: per-time-window percentiles
	// and SLO over-counts, merged across clients into kv.lat.win.
	latWin  *stats.Windowed
	batches int
	scanned int
}

// Service implements workload.Workload for the "kv" (zipfian) and
// "kv/uniform" request mixes.
type Service struct {
	dist    int
	window  engine.Cycle
	clients []*client
}

func (s *Service) Name() string {
	if s.dist == distUniform {
		return "kv/uniform"
	}
	return "kv"
}

func (s *Service) Description() string {
	if s.dist == distUniform {
		return "multi-client KV service on pds shards, uniform keys, batched commits through the shared oplog"
	}
	return "multi-client KV service on pds shards, zipfian keys, batched commits through the shared oplog"
}

// PaperPStores is zero: the service tier is not a Table IV row.
func (s *Service) PaperPStores() float64 { return 0 }

// rng is the drivers' per-thread seed formula.
func rng(p workload.Params, thread int) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1000003 + int64(thread)))
}

// schedule precomputes client c's request stream. Both the arrival process
// and the op/key mix come from the client's seeded rng, so every scheme
// sees the identical offered load.
func (s *Service) schedule(c int, p workload.Params) []request {
	r := rng(p, c)
	var zipf *rand.Zipf
	if s.dist == distZipf {
		zipf = rand.NewZipf(r, 1.2, 8, keyspace-1)
	}
	reqs := make([]request, p.OpsPerThread)
	arrival := engine.Cycle(0)
	for i := range reqs {
		// Mean interarrival ~720 cycles: between the PMEM baseline's
		// per-client service capacity and the battery schemes' — equal
		// offered load, visibly different queueing.
		arrival += engine.Cycle(600 + r.Intn(240))
		var key uint64
		if zipf != nil {
			key = 1 + zipf.Uint64()
		} else {
			key = 1 + uint64(r.Intn(keyspace))
		}
		req := request{key: key, arrival: arrival}
		switch roll := r.Intn(10); {
		case roll < 5:
			req.op = opPut
			req.val = uint64(c+1)<<48 | uint64(i+1)
		case roll < 8:
			req.op = opGet
		case roll < 9:
			req.op = opDelete
		default:
			req.op = opScan
		}
		reqs[i] = req
	}
	return reqs
}

// Setup precomputes every client's schedule and carves the shards and the
// shared oplog out of the persistent arena.
func (s *Service) Setup(mem *memory.Memory, arena *palloc.Arena, p workload.Params) {
	s.window = p.BatchWindow
	if s.window == 0 {
		s.window = defaultWindow
	}
	slo := p.SLOTarget
	if slo == 0 {
		slo = defaultSLO
	}
	s.clients = nil
	// The oplog sees at most one record per request from each client.
	oplog := pds.NewQueue(mem, arena, p.Threads, p.OpsPerThread+1)
	layout := mem.Layout()
	for c := 0; c < p.Threads; c++ {
		cl := &client{
			reqs:  s.schedule(c, p),
			oplog: oplog,
			// Pacing loads spin on a private DRAM line.
			scratch: layout.DRAMBase + memory.Addr(0x10000+c*int(memory.LineSize)),
			// Node heap: one node per put plus out-of-place resize copies.
			shard:  pds.NewMap(mem, arena, 1, p.OpsPerThread*6+64, 256),
			index:  pds.NewList(mem, arena, 1, p.OpsPerThread+1),
			latWin: stats.NewWindowed(latWindowWidth, slo),
		}
		s.clients = append(s.clients, cl)
	}
}

// batchRecord tags an oplog entry with its client and batch index.
func batchRecord(c, idx int) uint64 { return uint64(c+1)<<32 | uint64(idx) }

// apply executes one request against client c's shard.
func (s *Service) apply(e cpu.Env, cl *client, req request) {
	switch req.op {
	case opPut:
		cl.shard.Put(e, 0, req.key, req.val)
		cl.index.Insert(e, 0, req.key, req.val)
		if cl.shard.LoadFactor(e) > 4 {
			cl.shard.Resize(e, 0) // single writer: quiescence holds
		}
	case opGet:
		cl.shard.Get(e, req.key)
	case opDelete:
		cl.shard.Delete(e, req.key)
	case opScan:
		keys, _ := cl.index.Scan(e, req.key, scanWidth)
		cl.scanned += len(keys)
	}
}

// Programs returns one service loop per client: wait for the batch to
// form, apply it, commit it to the oplog, observe latencies.
func (s *Service) Programs(p workload.Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for c := 0; c < p.Threads; c++ {
		cl := s.clients[c]
		progs[c] = func(e cpu.Env) {
			i := 0
			for i < len(cl.reqs) {
				// Idle until the batch's first request arrives.
				for e.Now() < cl.reqs[i].arrival {
					cpu.Load64(e, cl.scratch)
				}
				deadline := e.Now() + s.window
				n := 0
				for i+n < len(cl.reqs) && n < batchCap {
					req := cl.reqs[i+n]
					if req.arrival > deadline {
						break
					}
					for e.Now() < req.arrival {
						cpu.Load64(e, cl.scratch)
					}
					cl.queueDelay.Observe(uint64(e.Now() - req.arrival))
					s.apply(e, cl, req)
					n++
				}
				// Commit: one oplog record makes the batch durable. The
				// enqueue's internal seal+fence+CAS is the only fence a
				// battery scheme pays for the whole batch.
				s.oplogEnqueue(e, cl, c)
				commit := e.Now()
				for j := i; j < i+n; j++ {
					lat := uint64(commit - cl.reqs[j].arrival)
					cl.lat.Observe(lat)
					cl.latWin.Observe(uint64(commit), lat)
					switch cl.reqs[j].op {
					case opPut:
						cl.latPut.Observe(lat)
					case opGet:
						cl.latGet.Observe(lat)
					case opDelete:
						cl.latDel.Observe(lat)
					case opScan:
						cl.latScan.Observe(lat)
					}
				}
				cl.batchSize.Observe(uint64(n))
				i += n
			}
		}
	}
	return progs
}

// oplogEnqueue commits client c's current batch.
func (s *Service) oplogEnqueue(e cpu.Env, cl *client, c int) {
	cl.oplog.Enqueue(e, c, batchRecord(c, cl.batches))
	cl.batches++
}

// authentic reports whether (key, val) matches some put in cl's stream —
// the value formula c+1 in the top bits, 1-based request index below.
func authentic(c int, cl *client, key, val uint64) bool {
	if val>>48 != uint64(c+1) {
		return false
	}
	i := int(val&0xFFFF_FFFF_FFFF) - 1
	if i < 0 || i >= len(cl.reqs) {
		return false
	}
	req := cl.reqs[i]
	return req.op == opPut && req.key == key && req.val == val
}

// Check validates invariants that hold on every legal durable image, under
// every scheme (BEP's epoch buffers are volatile, so recent fenced ops may
// be missing — only ordering survives): structural recovery, value
// authenticity against the client's schedule, and a gapless oplog prefix.
// CheckComplete adds exact-replay equality for the schemes whose fences
// imply durability.
func (s *Service) Check(mem *memory.Memory) error {
	for c, cl := range s.clients {
		img, err := pds.RecoverMap(mem, cl.shard.Base())
		if err != nil {
			return fmt.Errorf("kv: client %d shard: %w", c, err)
		}
		for _, key := range sortedKeys(img.Live) {
			if !authentic(c, cl, key, img.Live[key]) {
				return fmt.Errorf("kv: client %d key %d holds fabricated value %#x", c, key, img.Live[key])
			}
		}
		lst, err := pds.RecoverList(mem, cl.index.Base())
		if err != nil {
			return fmt.Errorf("kv: client %d index: %w", c, err)
		}
		for i, key := range lst.Keys {
			if !authentic(c, cl, key, lst.Vals[i]) {
				return fmt.Errorf("kv: client %d index key %d holds fabricated value %#x", c, key, lst.Vals[i])
			}
		}
	}
	// Oplog records per client must form a gapless prefix of the batch
	// sequence — a hole would mean a later batch commit became durable
	// before an earlier one.
	if len(s.clients) == 0 {
		return nil
	}
	img, err := pds.RecoverQueue(mem, s.clients[0].oplog.Base())
	if err != nil {
		return fmt.Errorf("kv: oplog: %w", err)
	}
	next := make([]int, len(s.clients))
	for _, v := range img.Vals {
		c := int(v>>32) - 1
		idx := int(v & 0xFFFF_FFFF)
		if c < 0 || c >= len(s.clients) {
			return fmt.Errorf("kv: oplog record %#x names client %d", v, c)
		}
		if idx != next[c] {
			return fmt.Errorf("kv: oplog client %d jumps from batch %d to %d", c, next[c], idx)
		}
		next[c]++
	}
	return nil
}

// CheckComplete is Check plus exact-replay equality: after a completed run
// whose scheme makes fenced operations durable (every scheme but BEP), the
// durable image must equal the host-side replay of every client's full
// schedule, and the oplog must hold every batch.
func (s *Service) CheckComplete(mem *memory.Memory) error {
	if err := s.Check(mem); err != nil {
		return err
	}
	for c, cl := range s.clients {
		wantLive := map[uint64]uint64{}
		wantDead := map[uint64]bool{}
		wantIndex := map[uint64]uint64{}
		for _, req := range cl.reqs {
			switch req.op {
			case opPut:
				wantLive[req.key] = req.val
				delete(wantDead, req.key)
				wantIndex[req.key] = req.val
			case opDelete:
				if _, live := wantLive[req.key]; live {
					delete(wantLive, req.key)
					wantDead[req.key] = true
				}
			}
		}
		img, err := pds.RecoverMap(mem, cl.shard.Base())
		if err != nil {
			return fmt.Errorf("kv: client %d shard: %w", c, err)
		}
		if len(img.Live) != len(wantLive) {
			return fmt.Errorf("kv: client %d shard has %d live keys, want %d", c, len(img.Live), len(wantLive))
		}
		for _, key := range sortedKeys(wantLive) {
			if got, ok := img.Live[key]; !ok || got != wantLive[key] {
				return fmt.Errorf("kv: client %d key %d = %d,%v, want %d", c, key, got, ok, wantLive[key])
			}
		}
		for _, key := range sortedKeys(wantDead) {
			if !img.Dead[key] {
				return fmt.Errorf("kv: client %d key %d should be tombstoned", c, key)
			}
		}
		lst, err := pds.RecoverList(mem, cl.index.Base())
		if err != nil {
			return fmt.Errorf("kv: client %d index: %w", c, err)
		}
		if len(lst.Keys) != len(wantIndex) {
			return fmt.Errorf("kv: client %d index has %d keys, want %d", c, len(lst.Keys), len(wantIndex))
		}
		for i, key := range lst.Keys {
			if want, ok := wantIndex[key]; !ok || lst.Vals[i] != want {
				return fmt.Errorf("kv: client %d index key %d = %d, want %d (present %v)", c, key, lst.Vals[i], want, ok)
			}
		}
	}
	img, err := pds.RecoverQueue(mem, s.clients[0].oplog.Base())
	if err != nil {
		return fmt.Errorf("kv: oplog: %w", err)
	}
	count := make([]int, len(s.clients))
	for _, v := range img.Vals {
		count[int(v>>32)-1]++
	}
	for c, cl := range s.clients {
		if count[c] != cl.batches {
			return fmt.Errorf("kv: oplog holds %d batches for client %d, want %d", count[c], c, cl.batches)
		}
	}
	return nil
}

// sortedKeys returns m's keys ascending, for deterministic checker walks.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m { //bbbvet:ignore detlint keys sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// MergeServiceMetrics implements workload.ServiceMetrics: fold the
// per-client histograms into the run's Metrics registry.
func (s *Service) MergeServiceMetrics(m *stats.Metrics) {
	for _, cl := range s.clients {
		m.MergeHist("kv.lat", &cl.lat)
		m.MergeHist("kv.lat.put", &cl.latPut)
		m.MergeHist("kv.lat.get", &cl.latGet)
		m.MergeHist("kv.lat.delete", &cl.latDel)
		m.MergeHist("kv.lat.scan", &cl.latScan)
		m.MergeHist("kv.batch_size", &cl.batchSize)
		m.MergeHist("kv.queue_delay", &cl.queueDelay)
		m.MergeWindowed("kv.lat.win", cl.latWin)
	}
	// Project the merged windows onto gauge timelines so the per-window
	// percentiles ride the standard GaugeSeries path (Perfetto counter
	// tracks, decimation, CLI summaries). Stamped at each window's last
	// cycle, machine-wide (core -1).
	if win := m.Windowed("kv.lat.win"); win != nil {
		p50, p99 := m.LazyGauge("kv.lat.win.p50"), m.LazyGauge("kv.lat.win.p99")
		for _, snap := range win.Snapshots() {
			end := snap.Start + win.Width() - 1
			p50.Sample(end, -1, uint64(snap.P50))
			p99.Sample(end, -1, uint64(snap.P99))
		}
	}
}
