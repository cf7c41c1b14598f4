package main

import (
	"context"
	"fmt"
	"runtime"

	"punt"
	"punt/internal/benchgen"
	"punt/internal/stg"
)

// Every workload draws its RandomSTG seeds from a range of its own, offset
// by the run's seed, so no two ranges overlap within or across workloads
// (for run seeds below 2^20).
const (
	rangeControllers = 1 << 40
	rangePuntdWarm   = 2 << 40
	rangePuntdCold   = 3 << 40
	seedStride       = 1 << 20
)

// randomSpec renders RandomSTG number s of range rng for the run seed as
// .g text, sized 4 to 12 signals by the generator seed.
func randomSpec(rng, seed int64, i int) (name, text string) {
	s := rng + (seed%seedStride)*seedStride + int64(i)
	return fmt.Sprintf("random-%d", s), stg.Format(benchgen.RandomSTG(s, int(4+s%9)))
}

// table1 returns the names and .g texts of the paper's Table 1 suite.
func table1() (names, texts []string) {
	for _, it := range punt.Table1() {
		names = append(names, it.Name)
		texts = append(texts, it.Spec.Text())
	}
	return names, texts
}

// figure6 returns the names and .g texts of the Figure 6 series the fig6
// and segments workloads cycle through.
func figure6() (names, texts []string) {
	for _, n := range []int{22, 34, 50} {
		names = append(names, fmt.Sprintf("pipeline-%d", n))
		texts = append(texts, punt.MullerPipelineWithSignals(n).Text())
	}
	return append(names, "counterflow"), append(texts, punt.CounterflowPipeline().Text())
}

func allInputs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// synthOut is the output of one synthesis op.
type synthOut struct {
	res *punt.Result
	eqn string
}

// synthOp is the op of the synthesis workloads: parse the .g text,
// synthesize it, render the equations.
func synthOp(ctx context.Context, text string, o *opTrace, opts ...punt.Option) (synthOut, error) {
	h := o.begin("spec.parse")
	spec, err := punt.Parse(text)
	o.end(h)
	if err != nil {
		return synthOut{}, err
	}
	h = o.begin("synthesize")
	res, err := punt.New(opts...).Synthesize(ctx, spec)
	o.end(h)
	if err != nil {
		return synthOut{}, err
	}
	o.annotateStats(h, &res.Stats, res.Resolved())
	h = o.begin("result.eqn")
	eqn := res.Eqn()
	o.end(h)
	return synthOut{res, eqn}, nil
}

// Controller rounds: the whole Table 1 suite, then the next slice of the
// run's pool of random controllers.
const (
	controllerRound = 200
	controllerPool  = 2000
	controllerCSC   = 4
)

// controllerCorpus returns the Table 1 suite followed by the run's pool of
// random controllers.
func controllerCorpus(seed int64) (names, texts []string) {
	names, texts = table1()
	for i := 0; i < controllerPool; i++ {
		name, text := randomSpec(rangeControllers, seed, i)
		names = append(names, name)
		texts = append(texts, text)
	}
	return names, texts
}

func setupControllers(ctx context.Context, cfg setupConfig) (instance, error) {
	names, texts := controllerCorpus(cfg.seed)
	nTable := len(punt.Table1())
	eqns := make([]string, len(texts))
	literals := make([]int, nTable)
	return &library{
		names: names,
		fixed: allInputs(nTable),
		round: func(r int) []int {
			ids := allInputs(nTable)
			for j := 0; j < controllerRound; j++ {
				ids = append(ids, nTable+(r*controllerRound+j)%controllerPool)
			}
			return ids
		},
		op: func(ctx context.Context, in int, o *opTrace) (any, error) {
			return synthOp(ctx, texts[in], o, punt.WithResolveCSC(controllerCSC))
		},
		check: func(in int, out any) error {
			so := out.(synthOut)
			sum := hashString(so.eqn)
			if eqns[in] == "" {
				eqns[in] = sum
				if in < nTable {
					literals[in] = so.res.Literals()
				}
			} else if eqns[in] != sum {
				return fmt.Errorf("equations differ from the input's first run")
			}
			return nil
		},
		// Keeping every result until the end would grow the heap the
		// measured ops collect, and verifying in the loop would leave them
		// its garbage; so each distinct input is synthesized again after
		// the run, must give the equations it gave in the run, and the
		// result must pass Verify.
		finish: func(ctx context.Context, d *runData, tr *tracer) {
			for in, want := range eqns {
				if want == "" {
					continue
				}
				verifyCheck(d, tr, names[in], func() error {
					so, err := synthOp(ctx, texts[in], nil, punt.WithResolveCSC(controllerCSC))
					if err != nil {
						return err
					}
					if hashString(so.eqn) != want {
						return fmt.Errorf("equations differ from the measured run's")
					}
					_, err = punt.Verify(ctx, so.res.Spec, so.res)
					return err
				})
			}
		},
		literals: func() int {
			n := 0
			for _, l := range literals {
				n += l
			}
			return n
		},
	}, nil
}

func setupFig6(ctx context.Context, cfg setupConfig) (instance, error) {
	names, texts := figure6()
	for _, n := range names {
		if cfg.golden[n] == "" {
			return nil, fmt.Errorf("no golden equations hash for %s", n)
		}
	}
	last := make([]*punt.Result, len(texts))
	counterflow := len(texts) - 1
	return &library{
		names: names,
		fixed: allInputs(len(texts)),
		round: func(int) []int { return allInputs(len(texts)) },
		op: func(ctx context.Context, in int, o *opTrace) (any, error) {
			return synthOp(ctx, texts[in], o)
		},
		check: func(in int, out any) error {
			so := out.(synthOut)
			last[in] = so.res
			if got := hashString(so.eqn); got != cfg.golden[names[in]] {
				return fmt.Errorf("equations hash %.12s, golden %.12s", got, cfg.golden[names[in]])
			}
			return nil
		},
		finish: func(ctx context.Context, d *runData, tr *tracer) {
			res := last[counterflow]
			if res == nil {
				return
			}
			verifyCheck(d, tr, names[counterflow], func() error {
				_, err := punt.Verify(ctx, res.Spec, res)
				return err
			})
		},
		literals: func() int {
			n := 0
			for _, res := range last {
				if res != nil {
					n += res.Literals()
				}
			}
			return n
		},
	}, nil
}

func setupSegments(ctx context.Context, cfg setupConfig) (instance, error) {
	names, texts := figure6()
	specs := make([]*punt.Spec, len(texts))
	ref := make([]string, len(texts))
	for i, text := range texts {
		spec, err := punt.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		seg, err := punt.Unfold(ctx, spec, punt.WithWorkers(1))
		if err != nil {
			return nil, fmt.Errorf("%s: reference segment: %w", names[i], err)
		}
		specs[i], ref[i] = spec, hashString(seg.Dump())
	}
	workers := runtime.GOMAXPROCS(0)
	return &library{
		names: names,
		fixed: allInputs(len(texts)),
		round: func(int) []int { return allInputs(len(texts)) },
		op: func(ctx context.Context, in int, o *opTrace) (any, error) {
			h := o.begin("unfold")
			seg, err := punt.Unfold(ctx, specs[in], punt.WithWorkers(workers))
			o.end(h)
			if err != nil {
				return nil, err
			}
			if o != nil {
				st := seg.Stats()
				o.annotate(h, counters{"events": int64(st.Events), "conditions": int64(st.Conditions), "cutoffs": int64(st.Cutoffs)})
			}
			return seg, nil
		},
		check: func(in int, out any) error {
			if got := hashString(out.(*punt.Segment).Dump()); got != ref[in] {
				return fmt.Errorf("segment dump hash %.12s, reference %.12s", got, ref[in])
			}
			return nil
		},
	}, nil
}
