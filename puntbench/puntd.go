package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"punt"
	"punt/server"
)

// The puntd traffic mix: one client sends rounds of requests, three in four
// for a warm spec drawn by Zipf popularity, one in four for a novel spec.
const (
	puntdRound   = 80  // requests per round
	puntdNovel   = 20  // novel specs per round; the first is sent twice at once
	puntdWarmSet = 256 // specs prefilled into the cache during setup
	puntdL1      = 64  // in-memory tier entries: a quarter of the warm set
	puntdZipfS   = 1.1
)

// puntdTraffic derives a run's requests from its seed, a round at a time:
// the same seed gives the same rounds.
type puntdTraffic struct {
	seed         int64
	r            *rand.Rand
	zipf         *rand.Zipf
	names, texts []string
	novel        int
	// twice marks the novel inputs sent twice at once.
	twice map[int]bool
}

// newPuntdTraffic builds the warm set: Table 1, then random specs.
func newPuntdTraffic(seed int64) *puntdTraffic {
	t := &puntdTraffic{seed: seed, r: rand.New(rand.NewSource(seed)), twice: map[int]bool{}}
	t.names, t.texts = table1()
	for i := 0; len(t.texts) < puntdWarmSet; i++ {
		t.add(randomSpec(rangePuntdWarm, seed, i))
	}
	t.zipf = rand.NewZipf(t.r, puntdZipfS, 1, puntdWarmSet-1)
	return t
}

func (t *puntdTraffic) add(name, text string) int {
	t.names = append(t.names, name)
	t.texts = append(t.texts, text)
	return len(t.texts) - 1
}

// round returns the inputs of the next round in the order they are sent:
// Zipf draws over the warm set and puntdNovel fresh specs, shuffled.
func (t *puntdTraffic) round() []int {
	ids := make([]int, 0, puntdRound)
	for len(ids) < puntdRound-puntdNovel {
		ids = append(ids, int(t.zipf.Uint64()))
	}
	for i := 0; i < puntdNovel; i++ {
		in := t.add(randomSpec(rangePuntdCold, t.seed, t.novel))
		t.novel++
		if i == 0 {
			t.twice[in] = true
		}
		ids = append(ids, in)
	}
	t.r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// puntd is the daemon workload: an in-process server over a tiered cache,
// driven through HTTP on the loopback interface by a closed loop of one
// client.
type puntd struct {
	*library
	traffic *puntdTraffic
	dir     string
	cache   *punt.Tiered
	srv     *server.Server
	hs      *httptest.Server
	client  *http.Client
}

// puntdOut is what one op was served: two replies for an input sent twice.
type puntdOut []reply

func setupPuntd(ctx context.Context, cfg setupConfig) (instance, error) {
	p := &puntd{traffic: newPuntdTraffic(cfg.seed)}
	dir, err := os.MkdirTemp("", "puntbench-puntd-")
	if err != nil {
		return nil, err
	}
	p.dir = dir
	disk, err := punt.NewDiskCache(dir)
	if err != nil {
		p.close()
		return nil, err
	}
	p.cache = punt.NewTiered(punt.NewLRU(puntdL1), disk)
	p.srv = server.New(server.Config{Cache: p.cache})
	p.hs = httptest.NewServer(p.srv.Handler())
	// Two connections: the client sends one request at a time, two only
	// for an input sent twice.
	p.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   time.Minute,
	}
	for in := 0; in < puntdWarmSet; in++ {
		if r := p.do(ctx, in, nil); r.err != nil {
			p.close()
			return nil, fmt.Errorf("prefill %s: %w", p.traffic.names[in], r.err)
		}
	}

	nTable := len(punt.Table1())
	eqns := make(map[int]string)
	literals := make([]int, nTable)
	var cache0 punt.CacheStats
	var srv0 server.Stats
	p.library = &library{
		names: p.traffic.names,
		fixed: allInputs(nTable),
		round: func(int) []int {
			ids := p.traffic.round()
			p.names = p.traffic.names
			return ids
		},
		op: func(ctx context.Context, in int, o *opTrace) (any, error) {
			if !p.traffic.twice[in] {
				r := p.do(ctx, in, o)
				return puntdOut{r}, r.err
			}
			// Sent twice at once, the second request meets the first one's
			// synthesis in the server's single flight.
			var second reply
			done := make(chan struct{})
			go func() {
				defer close(done)
				second = p.do(ctx, in, nil)
			}()
			first := p.do(ctx, in, o)
			<-done
			if first.err == nil {
				first.err = second.err
			}
			return puntdOut{first, second}, first.err
		},
		check: func(in int, out any) error {
			for _, r := range out.(puntdOut) {
				sum := hashString(r.eqn)
				if eqns[in] == "" {
					eqns[in] = sum
					if in < nTable {
						literals[in] = r.literals
					}
				} else if eqns[in] != sum {
					return fmt.Errorf("served equations differ from the input's first answer")
				}
			}
			return nil
		},
		begin: func() { cache0, srv0 = p.cache.Stats(), p.srv.Stats() },
		finish: func(ctx context.Context, d *runData, tr *tracer) {
			d.layer = p.layerMetrics(cache0, srv0)
			p.checkReplies(ctx, d, tr, eqns)
		},
		literals: func() int {
			n := 0
			for _, l := range literals {
				n += l
			}
			return n
		},
	}
	return p, nil
}

func (p *puntd) close() {
	if p.hs != nil {
		p.hs.Close()
		p.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := p.srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "puntbench: draining the server: %v\n", err)
		}
	}
	if err := os.RemoveAll(p.dir); err != nil {
		fmt.Fprintf(os.Stderr, "puntbench: removing the cache store: %v\n", err)
	}
}

// reply is the outcome of one request.
type reply struct {
	err      error
	eqn      string // the returned equations
	literals int
}

// do sends the request for input in and checks that the body decodes.
func (p *puntd) do(ctx context.Context, in int, o *opTrace) reply {
	h := o.begin("json.encode")
	body, err := json.Marshal(server.Request{Spec: p.traffic.texts[in], ResolveCSC: true})
	o.end(h)
	if err != nil {
		return reply{err: err}
	}
	h = o.begin("http.post")
	doc, hit, err := p.post(ctx, body)
	o.end(h)
	if err != nil {
		return reply{err: err}
	}
	hd := o.begin("json.decode")
	res, err := punt.DecodeResult(doc)
	o.end(hd)
	if err != nil {
		return reply{err: fmt.Errorf("decoding the result: %w", err)}
	}
	if o != nil {
		c := statsCounters(&res.Stats, res.Resolved())
		c["doc_bytes"] = int64(len(doc))
		if hit {
			c["cache_hit"] = 1
		}
		o.annotate(h, c)
	}
	he := o.begin("result.eqn")
	eqn := res.Eqn()
	o.end(he)
	return reply{eqn: eqn, literals: res.Literals()}
}

// post sends one synthesis request and returns the body of a 200 response
// and whether the server answered from its cache.
func (p *puntd) post(ctx context.Context, body []byte) (doc []byte, hit bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.hs.URL+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	doc, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, fmt.Errorf("reading the response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d: %.200s", resp.StatusCode, doc)
	}
	return doc, resp.Header.Get("X-Punt-Cache") == "hit", nil
}

// layerMetrics reads what the cache tiers and the server counted since the
// warm-up ended.
func (p *puntd) layerMetrics(cache0 punt.CacheStats, srv0 server.Stats) map[string]float64 {
	cache1, srv1 := p.cache.Stats(), p.srv.Stats()
	lookups := float64(cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses)
	tier := func(st punt.CacheStats, i int) punt.CacheStats {
		if i < len(st.Tiers) {
			return st.Tiers[i]
		}
		return punt.CacheStats{}
	}
	l1a, l1b, l2a, l2b := tier(cache0, 0), tier(cache1, 0), tier(cache0, 1), tier(cache1, 1)
	joined, syntheses := float64(srv1.Joined-srv0.Joined), float64(srv1.Syntheses-srv0.Syntheses)
	return map[string]float64{
		"cache.l1_hit_ratio":    float64(l1b.Hits-l1a.Hits) / lookups,
		"cache.l2_hit_ratio":    float64(l2b.Hits-l2a.Hits) / lookups,
		"cache.miss_ratio":      float64(cache1.Misses-cache0.Misses) / lookups,
		"cache.l1_evictions":    float64(l1b.Evictions - l1a.Evictions),
		"cache.corrupt":         float64(cache1.Corrupt - cache0.Corrupt),
		"server.collapse_ratio": joined / (joined + syntheses),
		"server.rejected":       float64(srv1.Rejected - srv0.Rejected),
	}
}

// checkReplies compares the equations served for every input with a
// synthesis of the same spec by the library in process, under the options
// the server derives from the request.
func (p *puntd) checkReplies(ctx context.Context, d *runData, tr *tracer, eqns map[int]string) {
	for in := range p.traffic.texts {
		want, served := eqns[in]
		if !served {
			continue
		}
		verifyCheck(d, tr, p.traffic.names[in], func() error {
			spec, err := punt.Parse(p.traffic.texts[in])
			if err != nil {
				return err
			}
			res, err := punt.New(punt.WithResolveCSC(0)).Synthesize(ctx, spec)
			if err != nil {
				return fmt.Errorf("reference synthesis: %w", err)
			}
			if got := hashString(res.Eqn()); got != want {
				return fmt.Errorf("served equations hash %.12s, library %.12s", want, got)
			}
			return nil
		})
	}
}
