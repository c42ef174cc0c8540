package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/service"
)

// The service mix: persistent fault models on the SIMT lockstep scheduler,
// uniform random sites, journals fsynced every 64 records.
var (
	svcKernels = []string{"GEMM K1", "PathFinder K1", "Gaussian K126", "2DCONV K1"}
	svcModels  = []string{"stuck-active-mask", "stuck-barrier", "stuck-pred"}
)

const (
	svcSites   = 300
	svcWarp    = 32
	svcClients = 2 // closed-loop clients, one connection each (nproc is 2)
	// dupEvery makes every dupEvery-th submission of a client repeat one of
	// its earlier ones, so a known share of the work is shared.
	dupEvery  = 4
	pollEvery = 5 * time.Millisecond
	// heapAt is the completed-campaign count after which an untraced run
	// samples the live heap. The server keeps every campaign's records, so
	// its heap grows with campaigns served; sampling at a fixed count keeps
	// heap_peak_mb independent of throughput.
	heapAt = 200
)

// Submission streams keep the seeds of warm-up, untraced and traced load
// apart, so no campaign is an unplanned duplicate of another.
const (
	streamWarm = iota
	streamPlain
	streamTraced
)

// svcBench is the service workload. Why: it drives the injection engine
// the other way from estimate — the careful tier for as long as a
// persistent fault lives, the lockstep scheduler, uniform random sites —
// with journal writes and fsync beside the status, report and advice
// reads of two closed-loop clients over loopback HTTP.
type svcBench struct {
	b       *bench
	dataDir string
	srv     *service.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	// targets are the benchmark's own prepared targets, for the advisor
	// probe.
	targets map[string]*fault.Target
	cache   *fault.PreparedCache
	// rejected counts 429 responses: submissions the admission queue
	// refused.
	rejected atomic.Int64
}

func newService(b *bench) workload {
	return &svcBench{b: b, dataDir: filepath.Join(b.dir, "data"), targets: make(map[string]*fault.Target),
		cache: fault.NewPreparedCache(0)}
}

// setup starts the server behind a loopback listener and runs one warm-up
// campaign per kernel, so the server's prepared-target cache is full
// before timing starts.
func (s *svcBench) setup() error {
	srv, err := service.New(service.Config{DataDir: s.dataDir, Workers: 2, Parallelism: 1, Cache: fault.NewPreparedCache(0)})
	if err != nil {
		return err
	}
	srv.Start()
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients},
		Timeout:   2 * time.Minute,
	}
	for i := range svcKernels {
		c := s.campaign(s.submission(streamWarm, i), "", nil, 0)
		if !c.ok {
			return fmt.Errorf("warm-up campaign %d failed", i)
		}
	}
	return nil
}

func (s *svcBench) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.srv != nil {
		s.srv.Stop()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// submission is the q-th distinct campaign of a stream. Consecutive q
// cycle every kernel and then every model; the seed is unique per
// (workload seed, stream, q).
func (s *svcBench) submission(stream, q int) service.Submission {
	return service.Submission{
		Kernel: svcKernels[q%len(svcKernels)],
		Model:  svcModels[(q/len(svcKernels))%len(svcModels)],
		Warp:   svcWarp,
		Sites:  svcSites,
		Seed:   (s.b.seed*4+int64(stream))<<20 | int64(q) + 1,
	}
}

// campaignOut is one client-side campaign.
type campaignOut struct {
	sub    service.Submission
	id     string
	dup    bool
	ok     bool
	dur    time.Duration
	report []byte
}

// call sends one request inside a span, reads the whole body and counts a
// non-2xx status as a failure.
func (s *svcBench) call(rec *recorder, name string, parent int, req int64, method, path string, body []byte) (int, []byte) {
	id := rec.start(name, parent, req)
	defer rec.end(id)
	r, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		s.b.tally.check(false, "%s %s: %v", method, path, err)
		return 0, nil
	}
	resp, err := s.client.Do(r)
	if err != nil {
		s.b.tally.check(false, "%s %s: %v", method, path, err)
		return 0, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		s.rejected.Add(1)
	}
	ok := err == nil && resp.StatusCode/100 == 2
	s.b.tally.check(ok, "%s %s: status %d (%v): %s", method, path, resp.StatusCode, err, bytes.TrimSpace(data))
	return resp.StatusCode, data
}

// campaign submits, polls until done, then fetches the report and the
// advice: the turnaround a user of the service waits for. dupOf, when set,
// is the id the submission must be deduplicated onto.
func (s *svcBench) campaign(sub service.Submission, dupOf string, rec *recorder, req int64) (out campaignOut) {
	out = campaignOut{sub: sub, dup: dupOf != ""}
	t0 := time.Now()
	root := rec.start("campaign", 0, req)
	defer func() {
		rec.end(root)
		out.dur = time.Since(t0)
	}()
	body, err := json.Marshal(sub)
	if err != nil {
		s.b.tally.check(false, "marshal submission: %v", err)
		return out
	}
	code, data := s.call(rec, "service.submit", root, req, http.MethodPost, "/campaigns", body)
	var sr struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if code/100 != 2 || json.Unmarshal(data, &sr) != nil {
		return out
	}
	out.id = sr.ID
	if out.dup {
		s.b.tally.check(sr.Deduped && sr.ID == dupOf, "duplicate submission answered id %s (deduped %v), want %s", sr.ID, sr.Deduped, dupOf)
	} else {
		s.b.tally.check(!sr.Deduped, "distinct submission %+v was deduplicated onto %s", sub, sr.ID)
	}
	for {
		code, data := s.call(rec, "service.status", root, req, http.MethodGet, "/campaigns/"+sr.ID, nil)
		var st service.Status
		if code/100 != 2 || json.Unmarshal(data, &st) != nil {
			return out
		}
		if st.State == service.StateDone {
			break
		}
		if st.State != service.StateQueued && st.State != service.StateRunning {
			s.b.tally.check(false, "campaign %s ended %s: %s", sr.ID, st.State, st.Error)
			return out
		}
		time.Sleep(pollEvery)
	}
	code, out.report = s.call(rec, "service.report", root, req, http.MethodGet, "/campaigns/"+sr.ID+"/report", nil)
	if code/100 != 2 {
		return out
	}
	if code, _ = s.call(rec, "service.advice", root, req, http.MethodGet, "/campaigns/"+sr.ID+"/advice", nil); code/100 != 2 {
		return out
	}
	out.ok = true
	return out
}

// load runs the closed-loop clients until the window has passed and
// returns every finished campaign and the elapsed time.
func (s *svcBench) load(stream int, window time.Duration, rec *recorder) ([]campaignOut, time.Duration) {
	var wg sync.WaitGroup
	var done atomic.Int64
	// Each client of an untraced run parks once, between campaigns, after
	// heapAt campaigns have completed (or when its loop ends); the last to
	// park samples the heap with no campaign in flight and releases both.
	var mu sync.Mutex
	parked := 0
	release := make(chan struct{})
	park := func() {
		mu.Lock()
		parked++
		last := parked == svcClients
		mu.Unlock()
		if last {
			s.b.sampleHeap()
			close(release)
		}
		<-release
	}
	per := make([][]campaignOut, svcClients)
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(s.b.seed), uint64(stream*svcClients+c)))
			var originals []campaignOut
			distinct := 0
			sampled := s.b.traced
			for i := 0; time.Since(start) < window; i++ {
				req := int64(stream)<<32 | int64(c)<<24 | int64(i)
				var out campaignOut
				if i%dupEvery == dupEvery-1 && len(originals) > 0 {
					o := originals[rng.IntN(len(originals))]
					out = s.campaign(o.sub, o.id, rec, req)
				} else {
					// Clients interleave the stream's distinct campaigns.
					out = s.campaign(s.submission(stream, distinct*svcClients+c), "", rec, req)
					distinct++
					if out.ok {
						originals = append(originals, out)
					}
				}
				per[c] = append(per[c], out)
				if done.Add(1) >= heapAt && !sampled {
					sampled = true
					park()
				}
			}
			if !sampled {
				park()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []campaignOut
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// checkReports compares each distinct campaign's served report with the
// document derived from its journal on disk, and counts its sites.
func (s *svcBench) checkReports(outs []campaignOut) {
	for _, o := range outs {
		if !o.ok || o.dup {
			continue
		}
		fp, recs, err := s.readJournal(o.id)
		if err != nil {
			s.b.tally.check(false, "campaign %s: %v", o.id, err)
			continue
		}
		m, err := report.NewMerged(fp, recs)
		var want bytes.Buffer
		if err == nil {
			err = report.Write(&want, m)
		}
		s.b.tally.check(err == nil && bytes.Equal(want.Bytes(), o.report),
			"campaign %s: served report differs from the journal's (%v)", o.id, err)
		s.b.tally.sites(int64(len(recs)), int64(m.Quarantined), o.id)
	}
}

// readJournal reads a campaign's journal in site-index order, the order
// report.NewMerged aggregates in.
func (s *svcBench) readJournal(id string) (journal.Fingerprint, []journal.Record, error) {
	fp, recs, err := journal.ReadFile(filepath.Join(s.dataDir, id+".journal"))
	sort.Slice(recs, func(i, k int) bool { return recs[i].Index < recs[k].Index })
	return fp, recs, err
}

func (s *svcBench) run() error {
	if !s.b.traced {
		outs, elapsed := s.load(streamPlain, s.b.window, nil)
		s.checkReports(outs)
		s.endToEnd(outs, elapsed)
		return nil
	}
	plain, _ := s.load(streamPlain, s.b.window/2, nil)
	before, err := s.stats()
	if err != nil {
		return err
	}
	rejected := s.rejected.Load()
	traced, _ := s.load(streamTraced, s.b.window/2, s.b.rec)
	after, err := s.stats()
	if err != nil {
		return err
	}
	s.checkReports(plain)
	s.checkReports(traced)
	return s.perLayer(plain, traced, before, after, s.rejected.Load()-rejected)
}

func (s *svcBench) endToEnd(outs []campaignOut, elapsed time.Duration) {
	var lat []float64
	distinct := 0
	for _, o := range outs {
		if !o.ok {
			continue
		}
		lat = append(lat, ms(o.dur))
		if !o.dup {
			distinct++
		}
	}
	s.b.set("ops_per_s", float64(len(lat))/elapsed.Seconds(), len(lat), "campaigns turned around per second")
	s.b.set("sites_per_s", float64(distinct*svcSites)/elapsed.Seconds(), distinct, "sites injected per second (distinct campaigns)")
	s.b.set("op_p50_ms", quantile(lat, 0.5), len(lat), "campaign turnaround, submit to advice received")
	s.b.set("op_p90_ms", quantile(lat, 0.9), len(lat), "campaign turnaround, submit to advice received")
	s.b.note("campaigns: %d (%d distinct) in %.1fs; %s", len(lat), distinct, elapsed.Seconds(), tailLabel(len(lat)))
}

// stats fetches GET /stats.
func (s *svcBench) stats() (service.Stats, error) {
	var st service.Stats
	code, data := s.call(nil, "service.stats", 0, 0, http.MethodGet, "/stats", nil)
	if code/100 != 2 {
		return st, fmt.Errorf("GET /stats: status %d", code)
	}
	return st, json.Unmarshal(data, &st)
}

// perLayer reports the traced half's figures: request self times from the
// spans, engine counters from GET /stats, and the journal, report and
// advisor probes run after the load.
func (s *svcBench) perLayer(plain, traced []campaignOut, before, after service.Stats, rejected int64) error {
	b := s.b
	spans := b.rec.snapshot()
	self := selfByName(spans, "campaign")
	count := make(map[string]int)
	for _, sp := range spans {
		count[sp.Name]++
	}
	for _, name := range []string{"service.submit", "service.status", "service.report", "service.advice"} {
		b.set(name+"_ms", mean(ms(self[name]), count[name]), count[name], "client-side time per request")
	}

	// Engine counters of the traced half's distinct campaigns.
	mine := make(map[string]bool)
	for _, o := range traced {
		if o.ok && !o.dup {
			mine[o.id] = true
		}
	}
	var st fault.CampaignStats
	var wallMS float64
	engine := 0
	for _, c := range after.Campaigns {
		if !mine[c.ID] {
			continue
		}
		engine++
		wallMS += c.Campaign.WallMS
		st.Runs += c.Campaign.Runs
		st.PagesCopied += c.Campaign.PagesCopied
		st.CTAsSkipped += c.Campaign.CTAsSkipped
		st.EarlyExits += c.Campaign.EarlyExits
		st.IntraSkips += c.Campaign.IntraSkips
		st.AffinityResets += c.Campaign.AffinityResets
		st.Retries += c.Campaign.Retries
		st.Quarantined += c.Campaign.Quarantined
	}
	b.set("fault.run_ms", mean(wallMS, engine), engine, "engine wall time per campaign, from GET /stats")
	campaignRatios(b, st)
	b.set("service.dedup_hits", float64(after.DedupHits-before.DedupHits), len(traced), "submissions answered by an existing campaign")
	b.set("service.engine_runs", float64(after.EngineRuns-before.EngineRuns), len(traced), "campaigns handed to the engine")
	b.set("service.rejected", float64(rejected), len(traced), "429 responses")

	var plainLat, tracedLat []float64
	for _, o := range plain {
		plainLat = append(plainLat, ms(o.dur))
	}
	for _, o := range traced {
		tracedLat = append(tracedLat, ms(o.dur))
	}
	b.set("bench.trace_overhead_pct", 100*(median(tracedLat)/median(plainLat)-1), len(tracedLat), "median traced turnaround over median untraced")
	b.note("layer shares of the traced campaigns (self time; campaign = waiting between polls):")
	for _, l := range shares(self) {
		b.note("  %s", l)
	}
	return s.probes(traced)
}

// probeCampaigns bounds how many traced campaigns the probes replay.
const probeCampaigns = 16

// probes times, per traced campaign, the report and advice derivations
// from its journal, and appends its records to a fresh fsynced journal.
func (s *svcBench) probes(traced []campaignOut) error {
	b := s.b
	var merged, analyze, appendT, syncT time.Duration
	var nCampaigns, nAppends, nSyncs int
	for i, o := range traced {
		if nCampaigns == probeCampaigns {
			break
		}
		if !o.ok || o.dup {
			continue
		}
		nCampaigns++
		req := int64(-1 - i)
		root := b.rec.start("probe", 0, req)

		id := b.rec.start("report.merged", root, req)
		t0 := time.Now()
		fp, recs, err := s.readJournal(o.id)
		if err == nil {
			_, err = report.NewMerged(fp, recs)
		}
		merged += time.Since(t0)
		b.rec.end(id)
		if err != nil {
			return err
		}

		t, err := s.target(o.sub.Kernel)
		if err != nil {
			return err
		}
		id = b.rec.start("advisor.analyze", root, req)
		t0 = time.Now()
		in, err := advisor.FromJournal(t, fp, recs)
		if err == nil {
			_, err = advisor.Analyze(in, advisor.Options{})
		}
		analyze += time.Since(t0)
		b.rec.end(id)
		if err != nil {
			return err
		}

		j, err := journal.Open(filepath.Join(s.dataDir, fmt.Sprintf("probe-%d.jprobe", i)), fp)
		if err != nil {
			return err
		}
		for k, r := range recs {
			id = b.rec.start("journal.append", root, req)
			t0 = time.Now()
			err = j.Append(r)
			appendT += time.Since(t0)
			b.rec.end(id)
			nAppends++
			if err == nil && (k+1)%64 == 0 {
				id = b.rec.start("journal.sync", root, req)
				t0 = time.Now()
				err = j.Sync()
				syncT += time.Since(t0)
				b.rec.end(id)
				nSyncs++
			}
			if err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
		b.rec.end(root)
	}
	b.set("report.merged_ms", mean(ms(merged), nCampaigns), nCampaigns, "journal.ReadFile plus report.NewMerged per campaign")
	b.set("advisor.analyze_ms", mean(ms(analyze), nCampaigns), nCampaigns, "advisor.FromJournal plus Analyze per campaign")
	b.set("journal.append_us", mean(ms(appendT)*1e3, nAppends), nAppends, "Append per record")
	b.set("journal.sync_ms", mean(ms(syncT), nSyncs), nSyncs, "Sync after 64 appends")
	return nil
}

// target returns the benchmark's own prepared target of a service kernel,
// configured as the server configures it.
func (s *svcBench) target(name string) (*fault.Target, error) {
	if t, ok := s.targets[name]; ok {
		return t, nil
	}
	spec, ok := kernels.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		return nil, err
	}
	inst.Target.WarpSize = svcWarp
	inst.Target.Cache = s.cache
	if err := inst.Target.Prepare(); err != nil {
		return nil, err
	}
	s.targets[name] = inst.Target
	return inst.Target, nil
}
